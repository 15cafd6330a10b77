package wal

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"exptrain/internal/persist"
)

// StoreConfig shapes a WAL-backed store.
type StoreConfig struct {
	// Wal configures the underlying log.
	Wal Config
	// CompactEvery triggers background compaction of a session once this
	// many committed rounds await folding into its snapshot (default 64).
	// Compaction cost is one Get+Put per session, amortized over
	// CompactEvery O(space)-sized appends.
	CompactEvery int
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.CompactEvery <= 0 {
		c.CompactEvery = 64
	}
	return c
}

// Store is a persist.Store that layers a write-ahead round log over an
// inner snapshot store. Reads fold the committed log suffix over the
// inner snapshot (snapshot + replay); AppendRounds is the cheap
// durability path — one group-committed log record per round instead of
// a full snapshot rewrite — and a background compactor folds long
// tails into fresh snapshots so dead log segments can be dropped.
//
// The commit contract composes from the layers' own: the inner store's
// five-step Put protocol makes each snapshot old-or-new, the log's
// torn-tail truncation makes the replayed suffix exactly the committed
// records, and ApplyDelta's gap check turns a lost committed round into
// ErrCorrupt instead of silently fabricated history (under replication
// the multistore then repairs from a peer).
type Store struct {
	inner persist.Store
	log   *Log
	cfg   StoreConfig

	mu sync.Mutex
	// tail holds each session's committed-but-unfolded round deltas,
	// sorted by round, latest write winning a round collision (a retried
	// append after an ambiguous crash legitimately revisits a round);
	// guarded by mu.
	tail map[string][]*persist.RoundDelta
	// water is each session's snapshot watermark: the inner store holds
	// at least this many rounds, so lower deltas are prunable; guarded
	// by mu.
	water map[string]int
	// closed rejects work once Close begins; guarded by mu.
	closed bool

	// kick wakes the compactor (capacity 1, non-blocking sends).
	kick chan struct{}
	// quit asks the compactor to exit.
	quit chan struct{}
	wg   sync.WaitGroup
}

// OpenStore opens (or creates) the write-ahead log in dir over the
// inner snapshot store, replaying the committed suffix into the store's
// in-memory tail so reads immediately observe every durable round. The
// returned RecoverResult reports what the replay found.
func OpenStore(inner persist.Store, dir string, cfg StoreConfig) (*Store, RecoverResult, error) {
	cfg = cfg.withDefaults()
	l, rec, err := Open(dir, cfg.Wal)
	if err != nil {
		return nil, rec, err
	}
	s := &Store{
		inner: inner,
		log:   l,
		cfg:   cfg,
		tail:  make(map[string][]*persist.RoundDelta),
		water: make(map[string]int),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	for sess, through := range rec.Marks {
		s.water[sess] = through
	}
	for _, d := range rec.Deltas {
		if d.Round < s.water[d.Session] {
			continue // already folded into a snapshot before the crash
		}
		s.insertTailLocked(d) // no concurrency yet: the compactor isn't running
	}
	s.wg.Add(1)
	go s.compactor()
	return s, rec, nil
}

// insertTailLocked merges one delta into its session's sorted tail,
// replacing any existing record for the same round (latest wins).
// Caller holds s.mu (or has exclusive access during open).
func (s *Store) insertTailLocked(d *persist.RoundDelta) {
	tail := s.tail[d.Session]
	i := sort.Search(len(tail), func(i int) bool { return tail[i].Round >= d.Round })
	if i < len(tail) && tail[i].Round == d.Round {
		tail[i] = d
		return
	}
	tail = append(tail, nil)
	copy(tail[i+1:], tail[i:])
	tail[i] = d
	s.tail[d.Session] = tail
}

// Inner returns the wrapped snapshot store.
func (s *Store) Inner() persist.Store { return s.inner }

// Log returns the underlying write-ahead log (for tests and fault
// injection).
func (s *Store) Log() *Log { return s.log }

// RoundAppender marks the store as append-capable for AppenderOf.
func (s *Store) RoundAppender() persist.RoundAppender { return s }

// AppendRounds implements persist.RoundAppender: the deltas ride one
// group commit and, once fsynced, become visible to Get's replay fold.
func (s *Store) AppendRounds(ctx context.Context, deltas []*persist.RoundDelta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(deltas) == 0 {
		return nil
	}
	for _, d := range deltas {
		if d == nil {
			return fmt.Errorf("wal: nil round delta")
		}
		if err := persist.ValidateID(d.Session); err != nil {
			return err
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	if err := s.log.Append(deltas); err != nil {
		return err
	}
	lag := 0
	s.mu.Lock()
	for _, d := range deltas {
		if d.Round >= s.water[d.Session] {
			s.insertTailLocked(d)
		}
		if n := len(s.tail[d.Session]); n > lag {
			lag = n
		}
	}
	s.mu.Unlock()
	if lag >= s.cfg.CompactEvery {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Get implements persist.Store: the inner snapshot plus the committed
// log suffix — snapshot + replay, on every read. A compaction whose
// Put lands between the inner read and the tail copy has pruned rounds
// the read snapshot lacks; the session's watermark moved then, so the
// read starts over against the folded snapshot.
func (s *Store) Get(ctx context.Context, id string) (*persist.Snapshot, error) {
	for {
		s.mu.Lock()
		water := s.water[id]
		s.mu.Unlock()
		snap, err := s.inner.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		moved := s.water[id] != water
		tail := append([]*persist.RoundDelta(nil), s.tail[id]...)
		s.mu.Unlock()
		if moved {
			continue
		}
		for _, d := range tail {
			if _, err := persist.ApplyDelta(snap, d); err != nil {
				return nil, fmt.Errorf("replaying wal for %q: %w", id, err)
			}
		}
		return snap, nil
	}
}

// Put implements persist.Store: the snapshot lands in the inner store
// (its own atomic commit protocol), the now-folded tail is pruned, and
// a watermark record rides the log so recovery and compaction know the
// fold happened. The mark is best-effort — losing it only costs
// harmless re-replay of already-folded rounds (ApplyDelta skips them).
func (s *Store) Put(ctx context.Context, id string, snap *persist.Snapshot) error {
	if err := s.inner.Put(ctx, id, snap); err != nil {
		return err
	}
	through := len(snap.History)
	s.mu.Lock()
	if through > s.water[id] {
		s.water[id] = through
	}
	tail := s.tail[id]
	i := sort.Search(len(tail), func(i int) bool { return tail[i].Round >= s.water[id] })
	switch {
	case i >= len(tail):
		delete(s.tail, id)
	case i > 0:
		s.tail[id] = append([]*persist.RoundDelta(nil), tail[i:]...)
	}
	s.mu.Unlock()
	if err := s.log.Mark(id, through); err != nil && !errors.Is(err, ErrClosed) {
		// The snapshot is durable; only compaction bookkeeping was lost.
		return nil
	}
	return nil
}

// Delete implements persist.Store: the inner snapshot goes away and a
// high watermark retires every logged round for the id, so a recovery
// replay cannot resurrect the session.
func (s *Store) Delete(ctx context.Context, id string) error {
	if err := s.inner.Delete(ctx, id); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.tail, id)
	s.water[id] = deletedWatermark
	s.mu.Unlock()
	if err := s.log.Mark(id, deletedWatermark); err != nil && !errors.Is(err, ErrClosed) {
		return nil // the delete is durable; only the log hint was lost
	}
	return nil
}

// deletedWatermark retires every conceivable round of a deleted
// session (rounds are bounded by the pair pool, far below this).
const deletedWatermark = 1 << 30

// List implements persist.Store. The log never creates ids the inner
// store lacks — the service writes a genesis snapshot before its first
// append — so the inner listing is the listing.
func (s *Store) List(ctx context.Context) ([]string, error) {
	return s.inner.List(ctx)
}

// Scan is the WAL-aware recovery scan: the inner store's own scan
// (quarantine torn snapshots, drop orphaned temps) followed by a fold
// of every session's committed tail into a fresh snapshot, so that
// after Scan the inner store alone carries every durable round — the
// state replication converges on. Implements the same optional
// interface MultiStore probes for, so a replica set of WAL stores
// reconciles through the standard quorum scan.
func (s *Store) Scan(ctx context.Context) (persist.ScanResult, error) {
	var res persist.ScanResult
	if sc, ok := s.inner.(interface {
		Scan(ctx context.Context) (persist.ScanResult, error)
	}); ok {
		var err error
		res, err = sc.Scan(ctx)
		if err != nil {
			return res, err
		}
	}
	s.mu.Lock()
	ids := make([]string, 0, len(s.tail))
	for id := range s.tail {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// Best-effort per session, like quarantining: one unfoldable tail
		// (e.g. its genesis snapshot never landed) must not hide the rest.
		_ = s.compactSession(ctx, id)
	}
	if _, err := s.log.Compact(); err != nil {
		return res, err
	}
	return res, nil
}

// compactSession folds one session's tail into a fresh inner snapshot.
func (s *Store) compactSession(ctx context.Context, id string) error {
	s.mu.Lock()
	n := len(s.tail[id])
	s.mu.Unlock()
	if n == 0 {
		return nil
	}
	snap, err := s.Get(ctx, id) // inner + fold
	if err != nil {
		return err
	}
	return s.Put(ctx, id, snap) // prunes the tail and marks the log
}

// compactor is the background folding goroutine: when a session's
// committed tail grows past CompactEvery, fold it into a fresh inner
// snapshot and let the log drop dead segments. Failures are tolerated
// — the tail stays, reads still fold it, and the next append re-kicks.
func (s *Store) compactor() {
	defer s.wg.Done()
	//etlint:ignore ctxflow the compactor is detached by design: folding committed rounds into snapshots is the store's own housekeeping, owned by no request
	ctx := context.Background()
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		s.mu.Lock()
		var due []string
		for id, tail := range s.tail {
			if len(tail) >= s.cfg.CompactEvery {
				due = append(due, id)
			}
		}
		s.mu.Unlock()
		sort.Strings(due)
		for _, id := range due {
			select {
			case <-s.quit:
				return
			default:
			}
			_ = s.compactSession(ctx, id)
		}
		if len(due) > 0 {
			_ = s.log.Rotate() // seal the folded rounds' segment...
			if _, err := s.log.Compact(); err != nil {
				continue // ...and drop what the folds retired
			}
		}
	}
}

// WalStats implements persist.WalStatter: the log's counters plus the
// committed-but-unfolded tail (the replay work a recovery would redo).
func (s *Store) WalStats() (persist.WalStats, bool) {
	st := s.log.Stats()
	s.mu.Lock()
	for _, tail := range s.tail {
		st.CompactionLag += len(tail)
	}
	s.mu.Unlock()
	return st, true
}

// Close stops the compactor and flushes and closes the log. The inner
// store is left untouched (callers own it).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	return s.log.Close()
}
