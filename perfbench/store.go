package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exptrain/internal/persist"
)

// tracedStore is the benchmark's persist.Store decorator, passed to the
// service as Options.Store. It times every call into the store it
// wraps and forwards the optional capabilities the service probes for:
// RoundAppender (through persist.AppenderOf) and WalStats. Dropping
// either would make the service fall back to snapshot durability or
// hide the WAL counters, and the benchmark would measure a different
// program.
type tracedStore struct {
	inner persist.Store
	app   persist.RoundAppender
	tr    *tracer
	// done, when set, hears of every round that AppendRounds made
	// durable.
	done *durability
	// unflushedMax is the largest WalStats.Unflushed seen around an
	// append (traced runs only).
	unflushedMax atomic.Int64
}

func newTracedStore(inner persist.Store, tr *tracer, done *durability) *tracedStore {
	return &tracedStore{inner: inner, app: persist.AppenderOf(inner), tr: tr, done: done}
}

func (s *tracedStore) span(ctx context.Context, name string) span {
	ref := spanOf(ctx)
	return s.tr.start(name, ref.id, ref.req)
}

// Put implements persist.Store.
func (s *tracedStore) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	sp := s.span(ctx, "persist.put")
	err := s.inner.Put(ctx, id, snap)
	s.tr.finish(sp, err)
	return err
}

// Get implements persist.Store.
func (s *tracedStore) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	sp := s.span(ctx, "persist.get")
	snap, err := s.inner.Get(ctx, id)
	s.tr.finish(sp, err)
	return snap, err
}

// Delete implements persist.Store.
func (s *tracedStore) Delete(ctx context.Context, id string) error {
	sp := s.span(ctx, "persist.delete")
	err := s.inner.Delete(ctx, id)
	s.tr.finish(sp, err)
	return err
}

// List implements persist.Store.
func (s *tracedStore) List(ctx context.Context) ([]string, error) {
	sp := s.span(ctx, "persist.list")
	ids, err := s.inner.List(ctx)
	s.tr.finish(sp, err)
	return ids, err
}

// RoundAppender reports the wrapped store's append capability: the
// decorator itself when the inner store can append rounds, nil when it
// cannot (persist.AppenderOf then sees snapshot-only durability, as it
// would without the decorator).
func (s *tracedStore) RoundAppender() persist.RoundAppender {
	if s.app == nil {
		return nil
	}
	return s
}

// AppendRounds implements persist.RoundAppender. A round counts as
// durable when this call returns nil: that is the inner store's fsync
// acknowledgement, not a ticket state.
func (s *tracedStore) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	sp := s.span(ctx, "wal.append")
	s.sampleUnflushed()
	err := s.app.AppendRounds(ctx, deltas)
	s.sampleUnflushed()
	s.tr.finish(sp, err)
	if err == nil {
		s.done.appended(deltas)
	}
	return err
}

// WalStats implements persist.WalStatter by forwarding.
func (s *tracedStore) WalStats() (persist.WalStats, bool) {
	if ws, ok := s.inner.(persist.WalStatter); ok {
		return ws.WalStats()
	}
	return persist.WalStats{}, false
}

func (s *tracedStore) sampleUnflushed() {
	if s.tr == nil {
		return
	}
	st, ok := s.WalStats()
	if !ok {
		return
	}
	for n := int64(st.Unflushed); ; {
		cur := s.unflushedMax.Load()
		if n <= cur || s.unflushedMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// roundKey names one round of one session.
type roundKey struct {
	session string
	round   int
}

// waiter is one expected round: ch closes once the round is durable,
// and at is when that happened.
type waiter struct {
	ch chan struct{}
	at time.Time
}

// durability tells waiting clients when a round became durable.
type durability struct {
	mu sync.Mutex
	// waits maps an expected round to its waiter; guarded by mu.
	waits map[roundKey]*waiter
}

func newDurability() *durability {
	return &durability{waits: make(map[roundKey]*waiter)}
}

// expect registers a waiter for a round. Call it before submitting the
// round.
func (d *durability) expect(session string, round int) *waiter {
	w := &waiter{ch: make(chan struct{})}
	d.mu.Lock()
	d.waits[roundKey{session, round}] = w
	d.mu.Unlock()
	return w
}

// forget drops the waiter of a round that was never submitted.
func (d *durability) forget(session string, round int) {
	d.mu.Lock()
	delete(d.waits, roundKey{session, round})
	d.mu.Unlock()
}

// appended wakes the waiters of the given rounds. A nil durability
// ignores them.
func (d *durability) appended(deltas []*persist.RoundDelta) {
	if d == nil {
		return
	}
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, x := range deltas {
		k := roundKey{x.Session, x.Round}
		if w, ok := d.waits[k]; ok {
			w.at = now
			close(w.ch)
			delete(d.waits, k)
		}
	}
}
