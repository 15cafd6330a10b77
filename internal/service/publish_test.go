package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"exptrain/internal/persist"
)

// TestManagerEvictPendingDrawExact pins draw-exact parking of a session
// caught with a presented round: Next → Evict → Next must present
// exactly the pairs a plain Next of the same spec presents, because the
// discarded round's draws are rewound before the checkpoint.
func TestManagerEvictPendingDrawExact(t *testing.T) {
	ctx := context.Background()
	m := NewManager(Options{})
	spec := datasetSpec(7)

	ref, err := m.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Next(ctx, ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	info, err := m.Create(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	got, err := m.Next(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed session presented %d pairs, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].A != want[i].A || got[i].B != want[i].B {
			t.Fatalf("pair %d after evicting a presented round = (%d,%d), plain Next = (%d,%d)",
				i, got[i].A, got[i].B, want[i].A, want[i].B)
		}
	}
}

// gatedAppendStore is a snapshot store with a round-append capability
// whose AppendRounds blocks, once armed, until the test releases it —
// a WAL fsync that has not returned yet.
type gatedAppendStore struct {
	*persist.MemStore
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (s *gatedAppendStore) RoundAppender() persist.RoundAppender { return s }

func (s *gatedAppendStore) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	s.mu.Lock()
	armed := s.armed
	s.armed = false
	s.mu.Unlock()
	if armed {
		close(s.entered)
		<-s.release
	}
	return ctx.Err()
}

// TestFaultTicketsAppliedOnlyAfterAppend is the ack-after-fsync
// property of the labelpool: while the drain's WAL append for a window
// has not returned, the window's tickets still read queued and an
// attached round stream emits no round; once the append returns, the
// tickets read applied and the rounds stream out.
func TestFaultTicketsAppliedOnlyAfterAppend(t *testing.T) {
	store := &gatedAppendStore{
		MemStore: persist.NewMemStore(),
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	m := NewManager(Options{Store: store})
	ts := httptest.NewServer(NewServer(m, ServerOptions{StreamHeartbeat: 10 * time.Millisecond}))
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: a failing test must unblock the
	// append before the server waits out the stream it holds up.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(store.release) }) }
	t.Cleanup(release)
	ctx := context.Background()

	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, rd := dialStream(t, ts, info.ID, -1)
	defer resp.Body.Close()
	frames := make(chan sseFrame, 64)
	go func() {
		defer close(frames)
		for {
			f, err := readFrame(rd)
			if err != nil {
				return
			}
			frames <- f
		}
	}()

	store.mu.Lock()
	store.armed = true
	store.mu.Unlock()
	tickets, err := m.EnqueueSubmissions(ctx, info.ID, abstainWindow(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the drain never reached AppendRounds")
	}

	// Heartbeats keep arriving while the append is blocked; none of the
	// frames may be a round.
	quiet := time.After(100 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case f := <-frames:
			if f.Event == "round" {
				t.Fatalf("stream emitted round %d before its append returned", f.ID)
			}
		case <-quiet:
			waiting = false
		}
	}
	for _, tk := range tickets {
		got, err := m.Ticket(ctx, info.ID, tk.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != TicketQueued {
			t.Fatalf("ticket %s (round %d) reads %q before its append returned", tk.ID, tk.Round, got.State)
		}
	}

	release()
	for _, tk := range tickets {
		if got := waitTicket(t, m, info.ID, tk.ID); got.State != TicketApplied {
			t.Fatalf("ticket %s after the append: state %q error %q, want applied", tk.ID, got.State, got.Error)
		}
	}
	next := 0
	deadline := time.After(10 * time.Second)
	for next < len(tickets) {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream closed after %d of %d rounds", next, len(tickets))
			}
			if f.Event != "round" {
				continue
			}
			if f.ID != next {
				t.Fatalf("stream delivered round %d, want %d", f.ID, next)
			}
			next++
		case <-deadline:
			t.Fatalf("stream delivered %d of %d rounds after the append returned", next, len(tickets))
		}
	}
}
