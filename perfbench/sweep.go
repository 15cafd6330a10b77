package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"exptrain/internal/agents"
	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/experiments"
	"exptrain/internal/game"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// Figure 1's condition (§C.1): OMDB, 240 rows, ≈10% violations, trainer
// prior Random, learner prior Data-estimate, K = 10, 30 iterations.
const (
	sweepDataset    = "OMDB"
	sweepRows       = 240
	sweepDegree     = 0.10
	sweepK          = 10
	sweepIterations = 30
	// The experiments package's defaults for the hypothesis space and
	// prior strength, which Figure 1 does not override.
	sweepMaxLHS     = 3
	sweepMaxFDs     = 38
	sweepPriorSigma = 0.12
)

// sweepGame is one Figure-1-shaped game: a paper method and a seed.
type sweepGame struct {
	method sampling.Method
	seed   uint64
}

// sweepGames lists n games cycling through the paper's four methods,
// with seeds drawn from the benchmark seed.
func sweepGames(seed uint64, n, offset int) []sweepGame {
	methods := sampling.Methods()
	out := make([]sweepGame, n)
	for i := range out {
		g := offset + i
		out[i] = sweepGame{method: methods[g%len(methods)], seed: mix(seed, uint64(g)) >> 16}
	}
	return out
}

// series is one game's per-iteration output.
type series struct{ mae, f1 []float64 }

// playExperiment plays a game through experiments.RunContext, the
// researcher's entry point.
func playExperiment(ctx context.Context, g sweepGame) (series, error) {
	res, err := experiments.RunContext(ctx, experiments.Config{
		Dataset:      sweepDataset,
		Rows:         sweepRows,
		Degree:       sweepDegree,
		TrainerPrior: belief.PriorSpec{Kind: belief.PriorRandom},
		LearnerPrior: belief.PriorSpec{Kind: belief.PriorDataEstimate},
		K:            sweepK,
		Iterations:   sweepIterations,
		Runs:         1,
		BaseSeed:     g.seed,
		Methods:      []sampling.Method{g.method},
	})
	if err != nil {
		return series{}, err
	}
	m := res.Methods[0]
	return series{mae: m.MAE, f1: m.F1}, nil
}

// playGame plays the same game as playExperiment, composed from the
// public game API the way experiments does it, so a game.Observer can
// watch it. It is both the sequential reference for the sweep's output
// check and the traced run's path into the engine.
func playGame(ctx context.Context, g sweepGame, obs game.Observer) (series, error) {
	gen, err := datagen.ByName(sweepDataset)
	if err != nil {
		return series{}, err
	}
	ds := gen(sweepRows, g.seed)
	injected, err := errgen.InjectDegree(ds.Rel, errgen.DegreeConfig{
		FDs:        ds.ExactFDs,
		Degree:     sweepDegree,
		MaxChanges: sweepRows / 3,
		Seed:       g.seed ^ 0xE44,
	})
	if err != nil {
		return series{}, err
	}
	rel := injected.Rel
	space := ds.Space(sweepMaxLHS, sweepMaxFDs)
	rng := stats.NewRNG(g.seed ^ 0x9A3E)
	_, testRows := rel.Split(rng.Split(), 0.7)
	dirty := make(map[int]struct{})
	for i, orig := range testRows {
		if _, bad := injected.DirtyRows[orig]; bad {
			dirty[i] = struct{}{}
		}
	}
	trainerPrior, err := belief.PriorSpec{Kind: belief.PriorRandom, Sigma: sweepPriorSigma}.Build(space, rel, rng.Split())
	if err != nil {
		return series{}, err
	}
	learnerPrior, err := belief.PriorSpec{Kind: belief.PriorDataEstimate, Sigma: sweepPriorSigma}.Build(space, rel, rng.Split())
	if err != nil {
		return series{}, err
	}
	sampler, err := sampling.New(g.method, sampling.DefaultGamma)
	if err != nil {
		return series{}, err
	}
	trainer := agents.NewFPTrainer(trainerPrior, rng.Split())
	learner := agents.NewLearner(learnerPrior, sampler, rng.Split())
	pool := sampling.NewPool(rel, space, sampling.PoolConfig{Seed: g.seed ^ 0x6001})
	out, err := game.RunContext(ctx, rel, trainer, learner, pool, game.Config{
		K:          sweepK,
		Iterations: sweepIterations,
		Eval:       &game.Evaluator{TestRel: rel.Subset(testRows), DirtyRows: dirty},
		Observer:   obs,
	})
	if err != nil {
		return series{}, err
	}
	return series{mae: out.MAESeries(), f1: out.F1Series()}, nil
}

// stageObserver turns the engine's events into stage spans under one
// game's span: RoundStarted→PairsPresented is the sampler's selection,
// →RoundSubmitted the simulated trainer's labelling, →BeliefUpdated
// the learner's belief update, →RoundScored the round's scoring.
type stageObserver struct {
	tr   *tracer
	game span
	last int64
}

func (o *stageObserver) stage(name string) {
	now := o.tr.now()
	o.tr.child(o.game, name, o.last, now)
	o.last = now
}

func (o *stageObserver) RoundStarted(int) { o.last = o.tr.now() }

func (o *stageObserver) PairsPresented(int, []dataset.Pair) { o.stage("sampling.select") }

func (o *stageObserver) RoundSubmitted(int, []belief.Labeling, []belief.Labeling) {
	o.stage("agents.label")
}

func (o *stageObserver) BeliefUpdated(int, *belief.Belief) { o.stage("belief.update") }

func (o *stageObserver) RoundScored(int, game.IterationRecord) { o.stage("game.score") }

// planSweep computes every game's reference series with playGame, each
// game played alone, workers games at a time.
func planSweep(ctx context.Context, games []sweepGame, workers int) ([]series, error) {
	out := make([]series, len(games))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(games); i += workers {
				s, err := playGame(ctx, games[i], nil)
				if err != nil {
					errs[w] = fmt.Errorf("reference game %d: %w", i, err)
					return
				}
				out[i] = s
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSweep performs paper-sweep: set-up (warm-up games, reps times),
// then the timed games, played one at a time, then the check against
// the reference series. Untraced runs play through
// experiments.RunContext; traced runs play the same games through
// playGame with a stageObserver.
func runSweep(ctx context.Context, cfg runConfig, tr *tracer, reps int, games []sweepGame, want []series, warm int) (*phase, error) {
	ph := &phase{}
	play := func(g sweepGame, parent span) (series, error) {
		if tr == nil {
			return playExperiment(ctx, g)
		}
		return playGame(ctx, g, &stageObserver{tr: tr, game: parent})
	}
	runAll := func(list []sweepGame, got []series, tl *tally) []sample {
		start := time.Now()
		var lats []sample
		for i, g := range list {
			t0 := time.Now()
			op := tr.start("op", 0, 0)
			s, err := play(g, op)
			tr.finish(op, err)
			tl.add(err)
			if err != nil {
				continue
			}
			lats = append(lats, sample{time.Since(t0), time.Since(start)})
			if got != nil {
				got[i] = s
			}
		}
		return lats
	}
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		tl := newTally()
		runAll(sweepGames(cfg.seed^0x5eed, warm, rep*warm), nil, tl)
		if _, failed, kinds := tl.counts(); failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", kinds)
		}
		runtime.GC()
		ph.setup = append(ph.setup, time.Since(t0))
	}
	tl := newTally()
	got := make([]series, len(games))
	runtime.ReadMemStats(&ph.mem0)
	cpu0 := cpuTime()
	start := time.Now()
	ph.ops = runAll(games, got, tl)
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.mem1)
	ph.heapEnd = liveHeap()
	ph.rounds = len(ph.ops) * sweepIterations
	ph.attempted, ph.failed, ph.failKinds = tl.counts()
	ph.spans = tr.snapshot()
	for i := range games {
		if d := compareSeries(got[i], want[i]); d != "" {
			ph.mismatches = append(ph.mismatches, fmt.Sprintf("game %d (%s, seed %d): %s", i, games[i].method, games[i].seed, d))
		}
	}
	return ph, nil
}

// compareSeries describes the first difference between two games'
// outputs ("" when they are identical).
func compareSeries(got, want series) string {
	if len(got.mae) != len(want.mae) || len(got.f1) != len(want.f1) {
		return fmt.Sprintf("%d/%d MAE/F1 points, reference has %d/%d", len(got.mae), len(got.f1), len(want.mae), len(want.f1))
	}
	for i := range got.mae {
		if got.mae[i] != want.mae[i] {
			return fmt.Sprintf("MAE at iteration %d is %v, reference has %v", i, got.mae[i], want.mae[i])
		}
	}
	for i := range got.f1 {
		if got.f1[i] != want.f1[i] {
			return fmt.Sprintf("F1 at iteration %d is %v, reference has %v", i, got.f1[i], want.f1[i])
		}
	}
	return ""
}
