package service

import (
	"context"
	"sync/atomic"

	"exptrain/internal/belief"
	"exptrain/internal/game"
	"exptrain/internal/persist"
)

// walRecorder is the per-session observer behind WAL-backed
// durability: it folds the engine's event stream into persist.RoundDelta
// records — one per scored round, carrying the round's interaction plus
// the learner's post-round belief and sampler RNG state — which the
// shard then group-commits through the store's RoundAppender
// (flushWal). It is installed alongside roundStats via MultiObserver
// only when the store supports appends.
//
// Like roundStats it has no internal locking: the engine serializes
// events per session and every take/restore/clear happens under the
// entry lock. The one exception is n, an atomic mirror of the pending
// count so health reporting can read a shard's un-appended backlog
// without touching entry locks.
type walRecorder struct {
	game.NopObserver
	// id is the session id stamped into every recorded delta. Set once
	// when the entry is built, before any round flows; it must not
	// change afterwards — a quorum append can return at W acks while a
	// straggler replica still reads the delta, so deltas are immutable
	// once handed to an append.
	id string
	// eval mirrors the session spec: deltas carry detection scores only
	// when the session scores them (matching Snapshot's serialization).
	eval bool
	// rng reads the session's sampler RNG position; bound after the
	// session is built (the recorder is constructed first, as the
	// observer must exist before the session).
	rng func() [4]uint64
	// learner is the belief captured at the round's BeliefUpdated,
	// consumed by the following RoundScored.
	learner []persist.BetaJSON
	// pending holds recorded deltas awaiting a durable append, in round
	// order. Deltas survive a failed append (restore) until a full
	// snapshot supersedes them (clear).
	pending []*persist.RoundDelta
	// n mirrors len(pending) for lock-free health reads.
	n atomic.Int64
}

// bind points the recorder at its session's RNG, once the session
// exists.
func (w *walRecorder) bind(sess *game.Session) {
	w.rng = sess.RNGState
}

// BeliefUpdated captures the learner's post-round belief; the engine
// emits it before the round's RoundScored.
func (w *walRecorder) BeliefUpdated(t int, b *belief.Belief) {
	w.learner = persist.BeliefToJSON(b)
}

// RoundScored assembles the round's delta.
func (w *walRecorder) RoundScored(t int, rec game.IterationRecord) {
	r := persist.Round{
		Labeled:   rec.Labeled,
		Revisions: rec.Revisions,
		MAE:       rec.MAE,
		Payoff:    rec.TrainerPayoff,
	}
	if w.eval {
		d := rec.Detection
		r.Detection = &d
	}
	delta := &persist.RoundDelta{
		Session:     w.id,
		Round:       t,
		Interaction: persist.FromRound(r),
		Learner:     w.learner,
	}
	if w.rng != nil {
		st := w.rng()
		delta.LearnerRNG = append([]uint64(nil), st[:]...)
	}
	w.pending = append(w.pending, delta)
	w.n.Store(int64(len(w.pending)))
}

// take removes and returns the pending deltas for an append attempt.
func (w *walRecorder) take() []*persist.RoundDelta {
	p := w.pending
	w.pending = nil
	w.n.Store(0)
	return p
}

// restore re-queues deltas after a failed append, ahead of anything
// recorded since.
func (w *walRecorder) restore(deltas []*persist.RoundDelta) {
	w.pending = append(deltas, w.pending...)
	w.n.Store(int64(len(w.pending)))
}

// clear drops the pending deltas — a full snapshot just landed, which
// carries everything they do.
func (w *walRecorder) clear() {
	w.pending = nil
	w.n.Store(0)
}

// backlog is the lock-free pending count, for health reporting.
func (w *walRecorder) backlog() int {
	return int(w.n.Load())
}

// flushWal durably appends the entry's recorded round deltas through
// the store's group committer — the WAL-era durability unit: a submit
// acks to its caller only after its delta's group commit fsynced
// (quorum-fsynced under replication). Caller holds e.mu.
//
// Failure follows the degraded-mode playbook: the deltas are restored
// for the next flush, the session is marked degraded, and serving
// continues from memory — nothing submitted is lost while the process
// lives, and any later full snapshot covers the backlog. A successful
// append heals the mark only for WAL-based entries (ones whose base
// snapshot durably landed): appended deltas without a base snapshot
// are not recoverable on their own.
func (sh *shard) flushWal(ctx context.Context, e *entry) error {
	if e.wal == nil || sh.appender == nil {
		return nil
	}
	deltas := e.wal.take()
	if len(deltas) == 0 {
		return nil
	}
	// Deltas carry their session id from record time and are never
	// mutated here: a quorum append can return while a straggler replica
	// still reads them.
	if err := sh.storeRetry(ctx, "appending rounds for "+e.id, func(ctx context.Context) error {
		return sh.appender.AppendRounds(ctx, deltas)
	}); err != nil {
		e.wal.restore(deltas)
		sh.setDegraded(e.id, true)
		return err
	}
	sh.mu.Lock()
	sh.walAppended += uint64(len(deltas))
	sh.mu.Unlock()
	if e.walBased {
		sh.setDegraded(e.id, false)
	}
	return nil
}
