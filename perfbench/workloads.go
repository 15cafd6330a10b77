package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"exptrain/client"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

// sample is one completed op: its latency, and when it completed
// counted from the start of the timed phase.
type sample struct{ lat, end time.Duration }

// Op metrics are medians over consecutive slices of the timed phase,
// so a few seconds of a slower machine move them less. A slice holds at
// least minSliceOps ops, so at least 10 lie beyond its p90.
const (
	maxSlices   = 12
	minSliceOps = 100
)

// slices splits the ops, in completion order, into up to maxSlices
// consecutive slices of equal op count.
func slices(ops []sample) [][]sample {
	s := append([]sample(nil), ops...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	k := max(1, min(maxSlices, len(s)/minSliceOps))
	out := make([][]sample, k)
	for c := range out {
		out[c] = s[c*len(s)/k : (c+1)*len(s)/k]
	}
	return out
}

// sliceMetrics returns the medians, over the slices, of each slice's
// throughput in rounds per second and of its p50 and p90 op latency in
// milliseconds.
func sliceMetrics(ops []sample, roundsPerOp int) (rate, p50, p90 float64) {
	var rates, p50s, p90s []float64
	var prev time.Duration
	for _, sl := range slices(ops) {
		last := sl[len(sl)-1].end
		if d := last - prev; d > 0 {
			rates = append(rates, float64(len(sl)*roundsPerOp)/d.Seconds())
		}
		prev = last
		lat := make([]float64, len(sl))
		for i, s := range sl {
			lat[i] = float64(s.lat) / float64(time.Millisecond)
		}
		p50s = append(p50s, percentile(lat, 0.5))
		p90s = append(p90s, percentile(lat, 0.9))
	}
	return median(rates), median(p50s), median(p90s)
}

// phase is what one set-up plus timed phase measured.
type phase struct {
	setup     []time.Duration
	elapsed   time.Duration
	cpu       time.Duration
	rounds    int
	ops       []sample
	sessions  int
	attempted int
	failed    int
	failKinds []string
	// heapBase is HeapAlloc after a forced GC before the kept set-up;
	// heapEnd after a forced GC at the end of the timed phase.
	heapBase, heapEnd uint64
	// mem0 and mem1 bracket the timed phase.
	mem0, mem1 runtime.MemStats
	mismatches []string

	// Traced runs only.
	spans           []span
	storeFailures   uint64
	walFsyncs       uint64
	walAppended     uint64
	walFsyncP99     float64
	walUnflushedMax int
}

// workload runs one set-up plus timed phase of a named workload,
// traced when tr is not nil.
type workload func(ctx context.Context, cfg runConfig, tr *tracer, reps int) (*phase, error)

var workloads = map[string]workload{
	"interactive":  serviceWorkload(interactive),
	"durable-pool": serviceWorkload(durablePool),
	"park-churn":   serviceWorkload(parkChurn),
	"paper-sweep":  paperSweep,
}

// omdb240 is the live annotator's session: OMDB, 240 rows, K = 10,
// StochasticUS, with held-out evaluation.
func omdb240(seed uint64, i int) client.CreateSession {
	return client.CreateSession{Dataset: "OMDB", Rows: 240, K: 10, Method: "StochasticUS", Eval: true, Seed: mix(seed, uint64(i)) >> 16}
}

// omdb24 is durable-pool's tiny session: OMDB, 24 rows, K = 2.
func omdb24(seed uint64, i int) client.CreateSession {
	return client.CreateSession{Dataset: "OMDB", Rows: 24, K: 2, Method: "StochasticUS", Seed: mix(seed, uint64(i)) >> 16}
}

// The shapes are sized per second of -seconds; rows=240/K=10 sessions
// exhaust their candidate pool near round 920, so budgets stay far
// below it.
func interactive(seconds int) shape {
	return shape{spec: omdb240, perClient: 16, warm: 1, rounds: 13 * seconds}
}

func parkChurn(seconds int) shape {
	return shape{spec: omdb240, perClient: 16, warm: 1, rounds: 2 * seconds, maxLive: 4}
}

func durablePool(seconds int) shape {
	return shape{spec: omdb24, perClient: 24 * seconds, warm: 4, rounds: 60, wal: true, syncDelay: 5 * time.Millisecond, window: 4, depth: 8}
}

// serviceWorkload runs an HTTP workload: plan every session with the
// sequential reference, then set up, time and check.
func serviceWorkload(size func(seconds int) shape) workload {
	return func(ctx context.Context, cfg runConfig, tr *tracer, reps int) (*phase, error) {
		sh := size(cfg.seconds)
		plans, err := planSessions(ctx, sh.specs(cfg), sh.warm+sh.rounds, cfg.seed, cfg.workers)
		if err != nil {
			return nil, err
		}
		return runService(ctx, sh, cfg, tr, reps, plans)
	}
}

// paperSweep runs 32 Figure-1 games per second of -seconds, one at a
// time, after 8 warm-up games.
func paperSweep(ctx context.Context, cfg runConfig, tr *tracer, reps int) (*phase, error) {
	games := sweepGames(cfg.seed, 32*cfg.seconds, 0)
	want, err := planSweep(ctx, games, cfg.workers)
	if err != nil {
		return nil, err
	}
	return runSweep(ctx, cfg, tr, reps, games, want, 8)
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase) (map[string]metric, error) {
	if ph.elapsed <= 0 || ph.rounds == 0 {
		return nil, fmt.Errorf("the timed phase completed no rounds")
	}
	if n := len(ph.ops); n < minSliceOps {
		return nil, fmt.Errorf("%d ops leave fewer than 10 samples beyond p90", n)
	}
	setup := make([]float64, len(ph.setup))
	for i, d := range ph.setup {
		setup[i] = d.Seconds()
	}
	rate, p50, p90 := sliceMetrics(ph.ops, ph.rounds/len(ph.ops))
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"rounds_per_s":  {rate, "1/s"},
		"op_p50_ms":     {p50, "ms"},
		"op_p90_ms":     {p90, "ms"},
		"live_heap_mib": {float64(ph.heapEnd) / (1 << 20), "MiB"},
	}, nil
}

// liveHeap returns HeapAlloc after forced collections. The second one
// also empties the sync.Pool victim caches the first one filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
