package persist

import (
	"context"
	"errors"
	"fmt"
)

// RoundAppender reports the replica set's round-append capability:
// non-nil (the multistore itself) only when every replica supports
// appends. A mixed set falls back to snapshot-only durability — quorum
// math over appends is only sound when all N replicas can take them,
// otherwise a "quorum" of the appendable minority would not intersect
// a snapshot write quorum.
func (s *MultiStore) RoundAppender() RoundAppender {
	for _, r := range s.replicas {
		if AppenderOf(r) == nil {
			return nil
		}
	}
	return s
}

// AppendRounds implements RoundAppender across the replica set with
// the same quorum discipline as Put: every replica's log takes the
// deltas concurrently and the call acks once W replicas fsynced.
// Stragglers finish in the background (Flush waits them out); a
// replica that missed the append heals through the ordinary read path
// — its next Get folds a shorter tail, loses the freshness race, and
// read-repair rewrites it with the winner.
func (s *MultiStore) AppendRounds(ctx context.Context, deltas []*RoundDelta) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(deltas) == 0 {
		return nil
	}
	for _, d := range deltas {
		if d == nil {
			return errors.New("persist: nil round delta")
		}
		if err := ValidateID(d.Session); err != nil {
			return err
		}
	}
	return s.quorum(fmt.Sprintf("append of %d round(s)", len(deltas)), func(i int) error {
		app := AppenderOf(s.replicas[i])
		if app == nil {
			return errors.New("replica lacks a round appender")
		}
		return app.AppendRounds(ctx, deltas)
	})
}

// WalStats implements WalStatter across the replica set: counts sum,
// the p99 is the worst replica's. Reports false when no replica
// surfaces WAL counters.
func (s *MultiStore) WalStats() (WalStats, bool) {
	var agg WalStats
	any := false
	for _, r := range s.replicas {
		ws, ok := r.(WalStatter)
		if !ok {
			continue
		}
		st, reported := ws.WalStats()
		if !reported {
			continue
		}
		agg.merge(st)
		any = true
	}
	return agg, any
}
