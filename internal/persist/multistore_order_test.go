package persist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// pausingPutStore is a replica whose next Put, once armed, waits for
// the test before writing — a straggler still in flight after its Put
// acked on the other replicas.
type pausingPutStore struct {
	*MemStore
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (s *pausingPutStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	s.mu.Lock()
	armed := s.armed
	s.armed = false
	s.mu.Unlock()
	if armed {
		close(s.entered)
		<-s.release
	}
	return s.MemStore.Put(ctx, id, snap)
}

// switchStore is a replica whose Puts fail while failing is set.
type switchStore struct {
	*MemStore
	mu      sync.Mutex
	failing bool
}

func (s *switchStore) Put(ctx context.Context, id string, snap *Snapshot) error {
	s.mu.Lock()
	failing := s.failing
	s.mu.Unlock()
	if failing {
		return errors.New("replica write failed")
	}
	return s.MemStore.Put(ctx, id, snap)
}

// TestFaultMultiStoreStragglerNeverRegresses pins write ordering per
// replica: a straggler from an older Put must not land over a newer
// snapshot on its replica. Otherwise a replica that acked the newer Put
// silently falls back, and once the other replica holding the newer
// snapshot is lost, every read quorum serves the older one.
func TestFaultMultiStoreStragglerNeverRegresses(t *testing.T) {
	ctx := context.Background()
	oldSnap, newSnap, _, _ := twoSnapshots(t)
	r0 := NewMemStore()
	r1 := &pausingPutStore{MemStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	r2 := &switchStore{MemStore: NewMemStore()}
	ms, err := NewMultiStore([]Store{r0, r1, r2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(r1.release) }) }
	defer release()

	// The older Put acks on replicas 0 and 2; its write to replica 1
	// straggles.
	r1.mu.Lock()
	r1.armed = true
	r1.mu.Unlock()
	if err := ms.Put(ctx, "s", oldSnap); err != nil {
		t.Fatal(err)
	}
	<-r1.entered

	// The newer Put cannot reach replica 2, so it commits on replicas 0
	// and 1. Release the straggler once it acked (or after a grace
	// period if it waits for the straggler).
	r2.mu.Lock()
	r2.failing = true
	r2.mu.Unlock()
	putNew := make(chan error, 1)
	go func() { putNew <- ms.Put(ctx, "s", newSnap) }()
	select {
	case err := <-putNew:
		putNew <- err
	case <-time.After(200 * time.Millisecond):
	}
	release()
	if err := <-putNew; err != nil {
		t.Fatalf("newer Put on replicas 0 and 1: %v", err)
	}
	ms.Flush()

	got, err := r1.MemStore.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) != len(newSnap.History) {
		t.Fatalf("replica 1 holds %d rounds after the straggler landed, want the newer %d",
			len(got.History), len(newSnap.History))
	}
	// Lose replica 0: the quorum of replicas 1 and 2 must still serve
	// the committed snapshot.
	ms.replicas[0] = brokenStore{err: errors.New("replica lost")}
	got, err = ms.Get(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.History) != len(newSnap.History) {
		t.Fatalf("Get after losing replica 0 = %d rounds, want the committed %d", len(got.History), len(newSnap.History))
	}
}
