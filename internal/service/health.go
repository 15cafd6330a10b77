package service

import (
	"exptrain/internal/persist"
)

// ShardHealth is one shard's slice of the health report.
type ShardHealth struct {
	// Shard is the shard index (the rendezvous routing target).
	Shard int `json:"shard"`
	// OK is false while any of the shard's sessions is degraded or its
	// last store operation failed.
	OK bool `json:"ok"`
	// Live, Parked and Degraded count sessions homed on this shard
	// (degraded ⊆ live).
	Live     int `json:"live"`
	Parked   int `json:"parked"`
	Degraded int `json:"degraded"`
	// Draining counts sessions with labelpool work still in flight on
	// this shard: a queued submission or an active drain goroutine.
	Draining int `json:"draining"`
	// StoreFailures counts this shard's store operations that exhausted
	// the retry policy since startup; StoreError is the most recent
	// one, empty once an operation succeeds again.
	StoreFailures uint64 `json:"store_failures"`
	StoreError    string `json:"store_error,omitempty"`
	// WalAppended counts round deltas this shard durably appended
	// through the store's WAL (0 on snapshot-only stores).
	WalAppended uint64 `json:"wal_appended,omitempty"`
	// WalPending counts rounds recorded by this shard's live sessions
	// but not yet durably appended — the shard's crash-loss exposure;
	// non-zero steady state means appends are failing.
	WalPending int `json:"wal_pending,omitempty"`
}

// Health reports this shard's slice of the health report.
func (sh *shard) Health() ShardHealth {
	sh.mu.Lock()
	h := ShardHealth{
		Shard:         sh.id,
		Live:          len(sh.live),
		Parked:        len(sh.parked),
		Degraded:      len(sh.degraded),
		StoreFailures: sh.storeFails,
		WalAppended:   sh.walAppended,
	}
	if sh.storeErr != nil {
		h.StoreError = sh.storeErr.Error()
	}
	for _, e := range sh.live {
		if e.wal != nil {
			// Lock-free read of the recorder's atomic backlog mirror —
			// health must not queue behind entry locks.
			h.WalPending += e.wal.backlog()
		}
	}
	h.OK = h.Degraded == 0 && sh.storeErr == nil
	sh.mu.Unlock()

	sh.poolMu.Lock()
	pools := make([]*labelPool, 0, len(sh.pools))
	for _, p := range sh.pools {
		pools = append(pools, p)
	}
	sh.poolMu.Unlock()
	for _, p := range pools {
		p.mu.Lock()
		busy := len(p.queue) > 0 || p.draining
		p.mu.Unlock()
		if busy {
			h.Draining++
		}
	}
	return h
}

// sicker ranks two shard healths: degraded sessions first (the
// never-drop promise is at risk), then accumulated store failures,
// then labelpool backlog, then sheer load.
func sicker(a, b ShardHealth) bool {
	if a.Degraded != b.Degraded {
		return a.Degraded > b.Degraded
	}
	if a.StoreFailures != b.StoreFailures {
		return a.StoreFailures > b.StoreFailures
	}
	if a.Draining != b.Draining {
		return a.Draining > b.Draining
	}
	return a.Live > b.Live
}

// Health is the manager's operator-facing health summary — what
// GET /v1/healthz reports and what a load balancer should act on. The
// top-level fields aggregate across shards (and keep their pre-sharding
// schema); Shards breaks the same counters out per shard and
// SickestShard names the shard an operator should look at first.
type Health struct {
	// OK is false while the manager is draining, any session on any
	// shard is degraded, or any shard's last store operation failed —
	// conditions under which an operator should drain traffic toward a
	// healthier replica.
	OK bool `json:"ok"`
	// Live, Parked and Degraded count sessions across all shards
	// (degraded ⊆ live).
	Live     int `json:"live"`
	Parked   int `json:"parked"`
	Degraded int `json:"degraded"`
	// Draining reports Shutdown in progress.
	Draining bool `json:"draining"`
	// StoreFailures sums store operations that exhausted the retry
	// policy since startup across shards; StoreError is the most recent
	// failing shard's error, empty when every shard's last operation
	// succeeded.
	StoreFailures uint64 `json:"store_failures"`
	StoreError    string `json:"store_error,omitempty"`
	// Shards holds the per-shard breakdown, in shard-index order.
	Shards []ShardHealth `json:"shards"`
	// SickestShard is the index of the worst-ranked shard (most
	// degraded sessions, then store failures, then backlog, then load).
	SickestShard int `json:"sickest_shard"`
	// Replicas carries per-replica checkpoint-store counters when the
	// store is a replicating persist.MultiStore (absent otherwise): a
	// replica with climbing failures is a disk to replace before a
	// second one dies.
	Replicas []persist.ReplicaStats `json:"replicas,omitempty"`
	// Wal carries the store's write-ahead-log counters when the store
	// is WAL-backed (absent otherwise): unflushed records and the last
	// group-commit batch size say how commits are batching, the fsync
	// p99 is the durability latency floor, and the compaction lag is
	// the committed-but-unfolded replay work a recovery would redo.
	// Under replication the counts are summed across replicas and the
	// p99 is the worst replica's.
	Wal *persist.WalStats `json:"wal,omitempty"`
}

// replicaStats is the optional store interface surfacing per-replica
// counters (persist.MultiStore).
type replicaStats interface {
	Stats() []persist.ReplicaStats
}

// Health reports the manager's current health across all shards.
func (m *Manager) Health() Health {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	h := Health{OK: true, Draining: draining, Shards: make([]ShardHealth, 0, len(m.shards))}
	for _, sh := range m.shards {
		s := sh.Health()
		h.Shards = append(h.Shards, s)
		h.Live += s.Live
		h.Parked += s.Parked
		h.Degraded += s.Degraded
		h.StoreFailures += s.StoreFailures
		if !s.OK {
			h.OK = false
		}
		if s.StoreError != "" {
			h.StoreError = s.StoreError
		}
		if sicker(s, h.Shards[h.SickestShard]) {
			h.SickestShard = s.Shard
		}
	}
	if draining {
		h.OK = false
	}
	if rs, ok := m.store.(replicaStats); ok {
		h.Replicas = rs.Stats()
	}
	if ws, ok := m.store.(persist.WalStatter); ok {
		if st, reported := ws.WalStats(); reported {
			h.Wal = &st
		}
	}
	return h
}
