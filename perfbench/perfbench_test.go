package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"exptrain/client"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 0.9); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSliceMetricsKeepTenSamplesBeyondP90(t *testing.T) {
	for _, c := range []struct{ ops, slices int }{{100, 1}, {200, 2}, {1000, 10}, {12000, 12}} {
		var ops []sample
		for i := 0; i < c.ops; i++ {
			// Completion order differs from submission order.
			ops = append(ops, sample{lat: time.Duration(i%10+1) * time.Millisecond, end: time.Duration(c.ops-i) * time.Millisecond})
		}
		sl := slices(ops)
		if len(sl) != c.slices {
			t.Fatalf("%d ops: %d slices, want %d", c.ops, len(sl), c.slices)
		}
		for _, s := range sl {
			if len(s)-int(0.9*float64(len(s))) < 10 {
				t.Fatalf("%d ops: a slice of %d leaves fewer than 10 samples beyond p90", c.ops, len(s))
			}
		}
		rate, p50, p90 := sliceMetrics(ops, 3)
		if rate != 3000 || p50 != 5 || p90 != 9 {
			t.Fatalf("%d ops: rate/p50/p90 = %v/%v/%v, want 3000/5/9", c.ops, rate, p50, p90)
		}
	}
}

func TestTallyCountsFailuresByKind(t *testing.T) {
	tl := newTally()
	tl.add(nil)
	tl.add(&client.Error{Kind: "submission_backlog", Status: 429})
	tl.add(&client.Error{Kind: "pool_exhausted", Status: 410})
	tl.add(&client.Error{Kind: "submission_backlog", Status: 429})
	tl.add(errNotDurable)
	tl.add(context.DeadlineExceeded)
	tl.add(errors.New("connection reset"))
	attempted, failed, kinds := tl.counts()
	if attempted != 7 || failed != 6 {
		t.Fatalf("attempted/failed = %d/%d, want 7/6", attempted, failed)
	}
	want := []string{"deadline=1", "not_durable=1", "pool_exhausted=1", "submission_backlog=2", "transport=1"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

func TestDecoratorForwardsCapabilities(t *testing.T) {
	ctx := context.Background()
	ws, _, err := wal.OpenStore(persist.NewMemStore(), t.TempDir(), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	done := newDurability()
	d := newTracedStore(ws, newTracer(), done)
	app := persist.AppenderOf(d)
	if app == nil {
		t.Fatal("AppenderOf(decorator over wal.Store) = nil; the service would fall back to snapshot durability")
	}
	if _, ok := d.WalStats(); !ok {
		t.Fatal("the decorator hides the WAL counters")
	}
	w := done.expect("s1", 0)
	if err := app.AppendRounds(ctx, []*persist.RoundDelta{{Session: "s1", Round: 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.ch:
	default:
		t.Fatal("AppendRounds returned but the round's waiter was not woken")
	}
	if st, _ := d.WalStats(); st.Appended != 1 {
		t.Fatalf("WalStats.Appended = %d, want 1", st.Appended)
	}

	plain := newTracedStore(persist.NewMemStore(), nil, nil)
	if persist.AppenderOf(plain) != nil {
		t.Fatal("AppenderOf(decorator over MemStore) != nil; a snapshot-only store gained a WAL")
	}
	if _, ok := plain.WalStats(); ok {
		t.Fatal("decorator over MemStore reports WAL counters")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "b", Start: 4, End: 7},
		{ID: 4, Parent: 1, Name: "c", Start: 9, End: 12},
		{ID: 5, Parent: 2, Name: "grandchild", Start: 3, End: 4},
	}
	self := selfTimes(spans)
	if got := self[1]; got != 4 {
		t.Errorf("parent self = %v, want 4ns (10 minus the union [2,7]+[9,10])", int64(got))
	}
	if got := self[2]; got != 2 {
		t.Errorf("child self = %v, want 2ns", int64(got))
	}
}

func TestAnnotatorIsSeededAndNeverLabelsAPairTwice(t *testing.T) {
	spec := omdb240(1, 0)
	a, err := newAnnotator(spec, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newAnnotator(spec, 7, 0)
	// Columns past the exact FDs' attributes do not matter here; the
	// tuples only need the schema's arity.
	arity := 0
	for _, r := range a.rules {
		for _, i := range append(r.lhs, r.rhs) {
			arity = max(arity, i+1)
		}
	}
	base := make([]string, arity)
	other := make([]string, arity)
	for i := range other {
		other[i] = "x"
	}
	marks := 0
	for r := 0; r < 40; r++ {
		pairs := []client.Pair{
			{A: r, B: r + 100, ATuple: base, BTuple: base},
			{A: r, B: r + 200, ATuple: base, BTuple: other},
			{A: r, B: r + 300, ATuple: base, BTuple: violating(a, base)},
		}
		la, lb := a.label(pairs), b.label(pairs)
		if !sameLabels(la, lb) {
			t.Fatalf("round %d: two annotators with one seed disagree", r)
		}
		seen := map[[2]int]bool{}
		for _, l := range la {
			if seen[l.Pair] {
				t.Fatalf("round %d labels pair %v twice", r, l.Pair)
			}
			seen[l.Pair] = true
			marks += len(l.Marked)
		}
	}
	if marks == 0 {
		t.Fatal("the annotator never marked a violating pair")
	}
}

// violating returns a copy of base that violates the annotator's first
// exact FD: same LHS values, a different RHS value.
func violating(a *annotator, base []string) []string {
	out := append([]string(nil), base...)
	out[a.rules[0].rhs] = "other"
	return out
}

// shrink returns a workload size with fewer sessions and rounds, for a
// quick smoke run.
func shrink(size func(int) shape, perClient, rounds int) func(int) shape {
	return func(seconds int) shape {
		sh := size(seconds)
		sh.perClient, sh.rounds = perClient, rounds
		return sh
	}
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 5, seconds: 1, clients: 2, workers: 2, workdir: t.TempDir()}
}

func TestServiceWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for name, size := range map[string]func(int) shape{
		"interactive":  shrink(interactive, 2, 3),
		"park-churn":   shrink(parkChurn, 6, 2),
		"durable-pool": shrink(durablePool, 3, 8),
	} {
		t.Run(name, func(t *testing.T) {
			run := serviceWorkload(size)
			cfg := smokeConfig(t)
			plain, err := run(ctx, cfg, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(ctx, cfg, newTracer(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range []*phase{plain, traced} {
				if len(ph.mismatches) > 0 || ph.failed > 0 || ph.rounds == 0 {
					t.Fatalf("mismatches %v, %d failed, %d rounds", ph.mismatches, ph.failed, ph.rounds)
				}
			}
			m := perLayer(plain, traced)
			appends := m["wal.append_count"].Value
			if name == "durable-pool" {
				if appends == 0 || m["labelpool.window_wait_p50_ms"].Value == 0 {
					t.Fatalf("durable-pool traced no appends or window waits: %v", m)
				}
			} else if appends != 0 {
				t.Fatalf("wal.append_count = %v on %s, want 0", appends, name)
			}
			if name == "park-churn" && m["persist.get_count"].Value < float64(traced.attempted) {
				t.Fatalf("persist.get_count = %v for %d ops; every op should unpark", m["persist.get_count"].Value, traced.attempted)
			}
		})
	}
}

func TestServiceCheckCatchesAWrongReference(t *testing.T) {
	ctx := context.Background()
	sh := shrink(interactive, 1, 2)(1)
	cfg := smokeConfig(t)
	plans, err := planSessions(ctx, sh.specs(cfg), sh.warm+sh.rounds, cfg.seed, cfg.workers)
	if err != nil {
		t.Fatal(err)
	}
	plans[1].belief[0].Confidence += 1e-9
	ph, err := runService(ctx, sh, cfg, nil, 1, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.mismatches) != 1 {
		t.Fatalf("mismatches = %v, want exactly the altered session", ph.mismatches)
	}
}

func TestPaperSweepSmoke(t *testing.T) {
	ctx := context.Background()
	cfg := smokeConfig(t)
	games := sweepGames(cfg.seed, 4, 0)
	want, err := planSweep(ctx, games, cfg.workers)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runSweep(ctx, cfg, nil, 1, games, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runSweep(ctx, cfg, newTracer(), 1, games, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []*phase{plain, traced} {
		if len(ph.mismatches) > 0 || ph.rounds != 4*sweepIterations {
			t.Fatalf("mismatches %v, %d rounds", ph.mismatches, ph.rounds)
		}
	}
	if m := perLayer(plain, traced); m["game.rounds"].Value != 6*sweepIterations {
		t.Fatalf("game.rounds = %v, want %d (4 games and 2 warm-up games)", m["game.rounds"].Value, 6*sweepIterations)
	}
	if stage, _ := largestStage(traced.spans); stage == "" {
		t.Fatal("no engine stage was traced")
	}

	want[2].mae[5] += 1e-12
	bad, err := runSweep(ctx, cfg, nil, 1, games, want, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad.mismatches) != 1 {
		t.Fatalf("mismatches = %v, want exactly the altered game", bad.mismatches)
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the code in
// step: every declared metric is reported with its declared unit, and
// nothing else is.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ph := &phase{setup: []time.Duration{time.Second}, elapsed: time.Second, rounds: 1, heapEnd: 1}
	for i := 0; i < 100; i++ {
		ph.ops = append(ph.ops, sample{time.Millisecond, time.Duration(i+1) * time.Millisecond})
	}
	e2e, err := endToEnd(ph)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		got      map[string]metric
		declared []struct{ Name, Unit string }
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", perLayer(ph, ph), spec.PerLayer}} {
		if len(c.got) != len(c.declared) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.declared))
		}
		for _, d := range c.declared {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s reported as %+v (present %v), declared unit %q", c.what, d.Name, m, ok, d.Unit)
			}
		}
	}
}
