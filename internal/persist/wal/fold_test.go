package wal

import (
	"context"
	"sync"
	"testing"
	"time"

	"exptrain/internal/persist"
)

// pausingGetStore is an inner snapshot store whose next Get, once
// armed, reads its snapshot and then waits for the test before
// returning it — a read that a compaction overtakes.
type pausingGetStore struct {
	*persist.MemStore
	mu      sync.Mutex
	armed   bool
	read    chan struct{}
	release chan struct{}
}

func (s *pausingGetStore) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	snap, err := s.MemStore.Get(ctx, id)
	s.mu.Lock()
	armed := s.armed
	s.armed = false
	s.mu.Unlock()
	if armed {
		close(s.read)
		<-s.release
	}
	return snap, err
}

// TestFaultWalGetDuringCompaction pins the read/compaction race: a Get
// that read the inner snapshot just before a compaction's folding Put
// landed (and pruned the tail it was about to replay) must still return
// every committed round.
func TestFaultWalGetDuringCompaction(t *testing.T) {
	ctx := context.Background()
	inner := &pausingGetStore{
		MemStore: persist.NewMemStore(),
		read:     make(chan struct{}),
		release:  make(chan struct{}),
	}
	// No background compaction: the test runs the one fold itself.
	s, _, err := OpenStore(inner, t.TempDir(), StoreConfig{CompactEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(ctx, "s", testSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	const committed = 5
	for r := 1; r < committed; r++ {
		if err := s.AppendRounds(ctx, []*persist.RoundDelta{mkDelta("s", r)}); err != nil {
			t.Fatal(err)
		}
	}

	inner.mu.Lock()
	inner.armed = true
	inner.mu.Unlock()
	type result struct {
		snap *persist.Snapshot
		err  error
	}
	got := make(chan result, 1)
	go func() {
		snap, err := s.Get(ctx, "s")
		got <- result{snap, err}
	}()
	select {
	case <-inner.read:
	case <-time.After(10 * time.Second):
		t.Fatal("Get never read the inner snapshot")
	}
	// The compaction folds the tail into the inner store and prunes it
	// while the Get above still holds the pre-fold snapshot.
	if err := s.compactSession(ctx, "s"); err != nil {
		close(inner.release)
		t.Fatal(err)
	}
	close(inner.release)
	r := <-got
	if r.err != nil {
		t.Fatalf("Get racing a compaction: %v", r.err)
	}
	if n := len(r.snap.History); n != committed {
		t.Fatalf("Get racing a compaction returned %d rounds, want all %d committed", n, committed)
	}
}
