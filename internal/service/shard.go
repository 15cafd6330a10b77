package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/stats"
)

// entry is one resident session. Its mutex serializes the session
// protocol; lastUsed is guarded by the owning shard's mutex (it is
// bumped during lookup, which already holds it).
type entry struct {
	mu       sync.Mutex
	id       string
	spec     Spec
	sess     *game.Session
	stats    *roundStats
	lastUsed time.Time
	// wal records per-round deltas for WAL-backed durability; nil when
	// the store takes no appends. Its take/restore/clear run under mu.
	wal *walRecorder
	// walBased marks that a snapshot of this entry durably landed in the
	// store, so appended deltas alone restore the session (and a
	// successful append may heal the degraded mark); guarded by mu.
	walBased bool
	// gone marks the entry evicted or shut down. A goroutine that won
	// the entry lock after blocking must re-check it and retry the
	// lookup: the session now lives in the store, not here.
	gone bool
}

// shard is one serving partition of the session space: the Manager
// (the front-tier router) resolves a session id by rendezvous hash and
// runs each per-session operation against the id's home shard. The
// router owns the operations; the shard owns state, locking and
// lifecycle (install, unpark, evict, checkpoint, sweep, shutdown).
// Each shard owns a disjoint slice of
// the sessions with its own lock domain: live map, parked set, LRU
// eviction, degraded bookkeeping, labelpools, drain goroutines and
// stream wakeups never contend across shards. Session ids carry no
// shard marker; the hash of the id IS the routing, so a session is
// sticky to one shard for its whole life (including parked time).
//
// Lock order (unchanged from the monolith, now per shard): the shard
// mutex is only ever held for short map/metadata critical sections and
// never blocks on an entry lock (TryLock is allowed); entry locks may
// be held across session work and may take the shard mutex. That
// asymmetry is what makes per-session locking deadlock-free — and
// shard mutexes of different shards are never held together at all.
type shard struct {
	id int
	// opts is the shard's slice of the manager options: MaxSessions is
	// the per-shard resident bound (ceil of the manager bound over the
	// shard count); everything else is shared verbatim.
	opts  Options
	store persist.Store
	// appender is the store's round-append capability (nil when the
	// store is snapshot-only); when present, submits are made durable by
	// group-committed WAL appends instead of full snapshots.
	appender persist.RoundAppender
	// now is the clock; a test hook (set via Manager.setNow).
	now func() time.Time

	mu sync.Mutex
	// live holds resident sessions; guarded by mu.
	live map[string]*entry
	// parked maps evicted sessions to their spec (snapshot in store);
	// guarded by mu.
	parked map[string]Spec
	// draining rejects new work during Shutdown; guarded by mu.
	draining bool
	// degraded marks live session ids whose last checkpoint exhausted
	// retries; guarded by mu. Parking requires a successful checkpoint,
	// so a parked session is never degraded.
	degraded map[string]bool
	// storeFails counts store operations that exhausted the retry
	// policy; guarded by mu.
	storeFails uint64
	// storeErr is the most recent exhausted-retries store error, nil
	// once an operation succeeds again; guarded by mu.
	storeErr error
	// walAppended counts round deltas this shard durably appended
	// through the WAL; guarded by mu.
	walAppended uint64
	// rrng draws retry backoff jitter; guarded by mu. Seeded from
	// (RetrySeed, shard id) so a replica outage does not synchronize
	// backoff storms across shards.
	rrng *stats.RNG

	// poolMu guards pools: each session's labelpool, created on first
	// enqueue and keyed by session id, surviving park/unpark. Never
	// hold poolMu while taking mu or an entry or pool lock.
	poolMu sync.Mutex
	pools  map[string]*labelPool // guarded by poolMu
	// drainWG tracks in-flight labelpool drain goroutines so shutdown
	// can flush every queued submission before checkpointing.
	drainWG sync.WaitGroup

	// streamMu guards streams: per-session wakeup channels of attached
	// SSE streams. A leaf lock — safe to take under any other.
	streamMu sync.Mutex
	streams  map[string]map[chan struct{}]struct{} // guarded by streamMu
}

// newShard builds one shard. maxSessions is the per-shard resident
// bound; the jitter stream is seeded from (RetrySeed, id) so shards
// never share a backoff schedule.
func newShard(id int, opts Options, maxSessions int) *shard {
	opts.MaxSessions = maxSessions
	return &shard{
		id:       id,
		opts:     opts,
		store:    opts.Store,
		appender: persist.AppenderOf(opts.Store),
		now:      time.Now,
		live:     make(map[string]*entry),
		parked:   make(map[string]Spec),
		degraded: make(map[string]bool),
		rrng:     stats.NewRNG(jitterSeed(opts.RetrySeed, id)),
		pools:    make(map[string]*labelPool),
		streams:  make(map[string]map[chan struct{}]struct{}),
	}
}

// jitterSeed mixes the manager's RetrySeed with a shard id into that
// shard's backoff-jitter seed. A plain xor or add would leave nearby
// shards' streams correlated; the splitmix64 finalizer scatters them.
func jitterSeed(retrySeed uint64, shardID int) uint64 {
	h := retrySeed + uint64(shardID)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// setDraining flips the shard into drain mode (idempotent).
func (sh *shard) setDraining() {
	sh.mu.Lock()
	sh.draining = true
	sh.mu.Unlock()
}

// isDraining reports whether the shard is in drain mode.
func (sh *shard) isDraining() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.draining
}

// install publishes a freshly built entry on the shard and makes room
// for it. The entry is locked before it becomes visible, so no request
// or eviction can touch it before the caller is done with it: on
// success the caller holds e.mu and must unlock it; on failure the
// entry is withdrawn again.
func (sh *shard) install(ctx context.Context, e *entry) error {
	e.mu.Lock()
	sh.mu.Lock()
	if sh.draining {
		sh.mu.Unlock()
		e.mu.Unlock()
		return ErrShuttingDown
	}
	e.lastUsed = sh.now()
	sh.live[e.id] = e
	sh.mu.Unlock()
	if err := sh.makeRoom(ctx); err != nil {
		e.gone = true
		sh.mu.Lock()
		delete(sh.live, e.id)
		sh.mu.Unlock()
		e.mu.Unlock()
		return err
	}
	return nil
}

// makeRoom evicts the least-recently-used idle entries until the shard
// is within capacity — the one capacity loop behind Create and
// unparking, both of which publish their entry locked first, so
// victimLocked's TryLock never picks it.
func (sh *shard) makeRoom(ctx context.Context) error {
	for {
		sh.mu.Lock()
		if len(sh.live) <= sh.opts.MaxSessions {
			sh.mu.Unlock()
			return nil
		}
		victim := sh.victimLocked()
		sh.mu.Unlock()
		if victim == nil {
			return ErrTooManySessions
		}
		if err := sh.evict(ctx, victim); err != nil {
			return fmt.Errorf("service: evicting %s for capacity: %w", victim.id, err)
		}
	}
}

// victimLocked picks the least-recently-used live entry whose lock is
// immediately free — an entry mid-request is never evicted. Healthy
// entries are preferred over degraded ones: a degraded session's last
// checkpoint failed, so evicting it will likely fail again; it is
// chosen only when no healthy candidate exists, which doubles as its
// recovery path once the store heals. Caller holds sh.mu; the returned
// entry is locked.
func (sh *shard) victimLocked() *entry {
	candidates := make([]*entry, 0, len(sh.live))
	for _, e := range sh.live {
		candidates = append(candidates, e)
	}
	sort.Slice(candidates, func(i, j int) bool {
		di, dj := sh.degraded[candidates[i].id], sh.degraded[candidates[j].id]
		if di != dj {
			return !di // healthy first
		}
		return candidates[i].lastUsed.Before(candidates[j].lastUsed)
	})
	for _, e := range candidates {
		if e.mu.TryLock() {
			if e.gone {
				e.mu.Unlock()
				continue
			}
			return e
		}
	}
	return nil
}

// evict checkpoints a locked entry into the store and parks it. The
// entry lock is released before returning.
//
// The invariant this method protects: a session leaves the live map
// only after its checkpoint durably landed. If the Put exhausts the
// retry policy the session stays live, unchanged, and is marked
// degraded — serving continues from memory, nothing submitted is lost,
// a presented round stays presented, and a later checkpoint (Sweep,
// Snapshot, Shutdown, or a forced eviction) retries and clears the
// mark.
func (sh *shard) evict(ctx context.Context, e *entry) error {
	defer e.mu.Unlock()
	if err := sh.checkpointLocked(ctx, e); err != nil {
		return err
	}
	e.gone = true
	sh.mu.Lock()
	delete(sh.live, e.id)
	sh.parked[e.id] = e.spec
	sh.mu.Unlock()
	return nil
}

// checkpointLocked snapshots a locked entry's submitted rounds into
// the store under its own id — the one checkpoint step behind
// eviction, explicit snapshots, the drain's CheckpointEvery and
// genesis. An unsubmitted round is left out of the snapshot: it
// carries no annotator evidence, and a session resumed from the
// snapshot rebuilds its pool from submitted history and rewinds the
// learner RNG to before the round, so it draws the same pairs again.
// In memory the round stays presented. A landed snapshot supersedes
// the WAL deltas still pending and heals the degraded mark; a Put that
// exhausts the retry policy marks the session degraded, and serving
// continues from memory.
func (sh *shard) checkpointLocked(ctx context.Context, e *entry) error {
	snap, err := e.sess.SnapshotSubmitted()
	if err != nil {
		return err
	}
	if err := sh.storeRetry(ctx, "checkpointing "+e.id, func(ctx context.Context) error {
		return sh.store.Put(ctx, e.id, snap)
	}); err != nil {
		sh.setDegraded(e.id, true)
		return err
	}
	if e.wal != nil {
		e.wal.clear()
	}
	e.walBased = true
	sh.setDegraded(e.id, false)
	return nil
}

// setDegraded flips a live session's degraded mark. Only live sessions
// carry the mark: parking requires the checkpoint to have succeeded.
func (sh *shard) setDegraded(id string, sick bool) {
	sh.mu.Lock()
	if sick {
		if _, ok := sh.live[id]; ok {
			sh.degraded[id] = true
		}
	} else {
		delete(sh.degraded, id)
	}
	sh.mu.Unlock()
}

// acquire returns the locked entry for id, transparently unparking an
// evicted session. The caller must unlock it. Lookup loops because an
// entry can be evicted between the map read and winning its lock.
// evenWhileDraining serves the labelpool drain, which must keep
// applying queued submissions while the shard drains (shutdown flushes
// the pools before checkpointing, so a submission accepted with a
// ticket is never silently dropped).
func (sh *shard) acquire(ctx context.Context, id string, evenWhileDraining bool) (*entry, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sh.mu.Lock()
		if sh.draining && !evenWhileDraining {
			sh.mu.Unlock()
			return nil, ErrShuttingDown
		}
		if e, ok := sh.live[id]; ok {
			e.lastUsed = sh.now()
			sh.mu.Unlock()
			e.mu.Lock()
			if e.gone {
				e.mu.Unlock()
				continue // evicted while we waited; retry (now parked)
			}
			return e, nil
		}
		spec, ok := sh.parked[id]
		if !ok {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
		}
		// Unpark: insert a locked placeholder so concurrent requests for
		// the same id queue on its lock instead of double-resuming, then
		// make room and do the store read and replay without holding the
		// shard lock. Any failure rolls the placeholder back to parked.
		e := &entry{id: id, spec: spec, lastUsed: sh.now()}
		e.mu.Lock() //etlint:ignore lockorder freshly allocated placeholder locked before publication in sh.live; nothing else can hold it, so the entry→shard edge of the order can't close a cycle
		delete(sh.parked, id)
		sh.live[id] = e
		sh.mu.Unlock()

		err := sh.makeRoom(ctx)
		var snap *persist.Snapshot
		if err == nil {
			err = sh.storeRetry(ctx, "loading snapshot "+id, func(ctx context.Context) error {
				var gerr error
				snap, gerr = sh.store.Get(ctx, id)
				return gerr
			})
		}
		var built *entry
		if err == nil {
			built, err = newEntry(spec, snap, sh.appender != nil, func() (string, error) { return id, nil })
		}
		if err != nil {
			sh.unparkFailed(e)
			return nil, fmt.Errorf("service: resuming parked session %q: %w", id, err)
		}
		// Published under the shard lock, which Health reads e.wal under.
		// The snapshot just resumed from IS the entry's base snapshot.
		sh.mu.Lock()
		e.sess, e.stats, e.wal, e.walBased = built.sess, built.stats, built.wal, true
		sh.mu.Unlock()
		return e, nil
	}
}

// unparkFailed rolls a placeholder back to parked after a failed
// resume; the snapshot is still in the store.
func (sh *shard) unparkFailed(e *entry) {
	e.gone = true
	sh.mu.Lock()
	delete(sh.live, e.id)
	sh.parked[e.id] = e.spec
	sh.mu.Unlock()
	e.mu.Unlock()
}

// infoOf renders a locked live entry.
func (sh *shard) infoOf(e *entry) Info {
	sh.mu.Lock()
	degraded := sh.degraded[e.id]
	sh.mu.Unlock()
	return Info{
		ID:        e.id,
		Method:    e.spec.Method.Resolve(),
		K:         e.spec.K,
		Rounds:    e.sess.Rounds(),
		Pending:   e.sess.PendingCount(),
		Remaining: e.sess.RemainingPairs(),
		Degraded:  degraded,
		Rows:      e.sess.Relation().NumRows(),
		Space:     e.sess.Belief().Size(),
	}
}

// parkedInfo reports a parked session from its parked metadata,
// without resuming it; ok is false when id is not parked here.
func (sh *shard) parkedInfo(id string) (info Info, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	spec, ok := sh.parked[id]
	if !ok {
		return Info{}, false
	}
	return Info{ID: id, Method: spec.Method.Resolve(), K: spec.K, Parked: true}, true
}

// List reports every session homed here, live and parked, ordered by
// id.
func (sh *shard) List(ctx context.Context) ([]Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh.mu.Lock()
	out := make([]Info, 0, len(sh.live)+len(sh.parked))
	for _, e := range sh.live {
		// Metadata only — reading counters without the entry lock would
		// race with in-flight rounds.
		out = append(out, Info{ID: e.id, Method: e.spec.Method.Resolve(), K: e.spec.K, Degraded: sh.degraded[e.id]})
	}
	for id, spec := range sh.parked {
		out = append(out, Info{ID: id, Method: spec.Method.Resolve(), K: spec.K, Parked: true})
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// replayedLocked resolves a submission for a round the session already
// applied: nil when its labels are an identical evidence replay of
// what the round recorded (the first attempt's response was lost, so
// success is reported again and nothing changes), ErrRoundMismatch
// otherwise. Caller holds e.mu.
func replayedLocked(e *entry, round int, labeled []belief.Labeling) error {
	rec := e.sess.Records()[round]
	if labelsDigest(labeled, nil) == labelsDigest(rec.Labeled, rec.Revisions) {
		return nil
	}
	return fmt.Errorf("%w: round %d was already applied with different labels (current round %d)",
		ErrRoundMismatch, round, e.sess.Rounds())
}

// applyLocked plays a consecutive run of submissions, starting at the
// session's current round, on a locked entry — the one apply step of
// both the interactive Submit and the labelpool drain. It returns how
// many applied; on error the rest of the run is untouched.
//
// Applied rounds are made durable before anything observes them: the
// whole run rides one WAL group commit, and only once that append
// returned do the rounds publish — their tickets resolve applied,
// attached streams wake, and a drain parked on a gap this run may have
// filled gets another chance. A failed append degrades the session and
// keeps its deltas for the next flush, as every checkpoint failure
// does: the rounds live on in memory and still publish.
func (sh *shard) applyLocked(ctx context.Context, e *entry, run []poolItem) (int, error) {
	batch := make([][]belief.Labeling, len(run))
	for i, it := range run {
		batch[i] = it.labeled
	}
	applied, err := e.sess.SubmitBatch(ctx, batch)
	if applied == 0 {
		return 0, err
	}
	_ = sh.flushWal(ctx, e)
	p := sh.peekPool(e.id)
	if p != nil {
		p.mu.Lock()
		for _, it := range run[:applied] {
			p.resolveLocked(it.ticketID, TicketApplied, nil)
		}
		p.mu.Unlock()
	}
	sh.notifyStreams(e.id)
	if p != nil {
		sh.kickDrain(p)
	}
	return applied, err
}

// Sweep parks every session idle for at least the IdleTTL and returns
// the parked ids. A failed eviction leaves that session live and
// degraded but does not stop the sweep — the remaining idle sessions
// still get their chance to park, and a later sweep retries the
// degraded ones (their recovery path once the store heals). All
// failures are joined into the returned error.
func (sh *shard) Sweep(ctx context.Context) ([]string, error) {
	sh.mu.Lock()
	cutoff := sh.now().Add(-sh.opts.IdleTTL)
	var idle []*entry
	for _, e := range sh.live {
		if e.lastUsed.Before(cutoff) {
			idle = append(idle, e)
		}
	}
	sh.mu.Unlock()
	var swept []string
	var errs []error
	for _, e := range idle {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		if !e.mu.TryLock() {
			continue // mid-request: not idle after all
		}
		if e.gone {
			e.mu.Unlock()
			continue
		}
		sh.mu.Lock()
		still := sh.live[e.id] == e && !e.lastUsed.After(cutoff)
		sh.mu.Unlock()
		if !still {
			e.mu.Unlock()
			continue
		}
		if err := sh.evict(ctx, e); err != nil {
			errs = append(errs, err)
			continue
		}
		swept = append(swept, e.id)
	}
	sort.Strings(swept)
	return swept, errors.Join(errs...)
}

// Counts reports how many of the shard's sessions are live and parked.
func (sh *shard) Counts() (live, parked int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.live), len(sh.parked)
}

// shutdown drains this shard: flush the labelpools (queued submissions
// that earned a ticket are applied, not dropped), wait out the drain
// goroutines, then checkpoint every live session. The caller must have
// called setDraining first — the flag must be observable before the
// pools flush, or an enqueue racing shutdown could slip items in after
// its pool drained (see Manager.EnqueueSubmissions).
func (sh *shard) shutdown(ctx context.Context) error {
	// Flush the labelpools before checkpointing: drains acquire even
	// while draining, so every queued round lands in its
	// session before that session's snapshot is taken.
	sh.flushPools()
	sh.drainWG.Wait()

	sh.mu.Lock()
	entries := make([]*entry, 0, len(sh.live))
	for _, e := range sh.live {
		entries = append(entries, e)
	}
	sh.mu.Unlock()

	var errs []error
	for _, e := range entries {
		e.mu.Lock()
		if e.gone {
			e.mu.Unlock()
			continue
		}
		if err := sh.evict(ctx, e); err != nil { // releases the lock
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
