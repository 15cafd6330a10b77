package main

import (
	"context"
	"fmt"
	"sync"

	"exptrain/client"
	"exptrain/internal/belief"
	"exptrain/internal/persist"
	"exptrain/internal/sampling"
	"exptrain/internal/service"
)

// topK is how many leading hypotheses the output check compares.
const topK = 10

// sessionPlan is one session's sequential in-process reference: the
// labels its annotator gives in every round and the state the service
// must end in.
type sessionPlan struct {
	spec client.CreateSession
	// annotator is the session's annotator before its first round.
	annotator annotator
	labels    [][]client.Labeling
	rounds    []client.Round
	belief    []client.Hypothesis
}

// planSessions plays every spec for the given number of rounds through
// an in-process service.Manager — no HTTP, no parking, no WAL, one
// caller per session — with the same seeded annotators the workloads
// use. Sessions are independent, so workers split them, each with its
// own manager.
func planSessions(ctx context.Context, specs []client.CreateSession, rounds int, seed uint64, workers int) ([]sessionPlan, error) {
	plans := make([]sessionPlan, len(specs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mgr := service.NewManager(service.Options{MaxSessions: len(specs) + 1})
			defer mgr.Shutdown(ctx)
			for i := w; i < len(specs); i += workers {
				p, err := planOne(ctx, mgr, specs[i], rounds, seed, i)
				if err != nil {
					errs[w] = fmt.Errorf("reference session %d: %w", i, err)
					return
				}
				plans[i] = p
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

func planOne(ctx context.Context, mgr *service.Manager, spec client.CreateSession, rounds int, seed uint64, idx int) (sessionPlan, error) {
	ann, err := newAnnotator(spec, seed, idx)
	if err != nil {
		return sessionPlan{}, err
	}
	method, err := sampling.ParseMethod(spec.Method)
	if err != nil {
		return sessionPlan{}, err
	}
	info, err := mgr.Create(ctx, service.Spec{
		Source: service.Source{Dataset: spec.Dataset, Rows: spec.Rows, Seed: spec.Seed},
		Method: method,
		K:      spec.K,
		Seed:   spec.Seed,
		Eval:   spec.Eval,
	})
	if err != nil {
		return sessionPlan{}, err
	}
	p := sessionPlan{spec: spec, annotator: *ann}
	for r := 0; r < rounds; r++ {
		views, err := mgr.Next(ctx, info.ID)
		if err != nil {
			return sessionPlan{}, fmt.Errorf("round %d: next: %w", r, err)
		}
		pairs := make([]client.Pair, len(views))
		for i, v := range views {
			pairs[i] = client.Pair{A: v.A, B: v.B, ATuple: v.ATuple, BTuple: v.BTuple}
		}
		labels := ann.label(pairs)
		bl, err := toBelief(labels)
		if err != nil {
			return sessionPlan{}, err
		}
		if _, err := mgr.Submit(ctx, info.ID, r, bl); err != nil {
			return sessionPlan{}, fmt.Errorf("round %d: submit: %w", r, err)
		}
		p.labels = append(p.labels, labels)
	}
	views, err := mgr.Rounds(ctx, info.ID)
	if err != nil {
		return sessionPlan{}, err
	}
	for _, v := range views {
		cr := client.Round{Round: v.Round, Labeled: v.Labeled, Revised: v.Revised, MAE: v.MAE, Payoff: v.Payoff}
		if v.Detection != nil {
			cr.Detection = &client.Detection{Precision: v.Detection.Precision, Recall: v.Detection.Recall, F1: v.Detection.F1}
		}
		p.rounds = append(p.rounds, cr)
	}
	hyps, err := mgr.TopBelief(ctx, info.ID, topK)
	if err != nil {
		return sessionPlan{}, err
	}
	for _, h := range hyps {
		p.belief = append(p.belief, client.Hypothesis{FD: h.FD, Confidence: h.Confidence, CILow: h.CILow, CIHigh: h.CIHigh})
	}
	return p, nil
}

// toBelief converts wire labelings to the engine's form.
func toBelief(labels []client.Labeling) ([]belief.Labeling, error) {
	out := make([]belief.Labeling, len(labels))
	for i, l := range labels {
		bl, err := persist.LabelingJSON{Pair: l.Pair, Marked: l.Marked, Abstained: l.Abstained}.ToLabeling()
		if err != nil {
			return nil, err
		}
		out[i] = bl
	}
	return out, nil
}

// compareSession checks one session's served state against its plan and
// returns a description of the first difference ("" when equal).
func compareSession(p sessionPlan, rounds []client.Round, hyps []client.Hypothesis) string {
	if len(rounds) != len(p.rounds) {
		return fmt.Sprintf("%d rounds, reference has %d", len(rounds), len(p.rounds))
	}
	for i := range rounds {
		if !sameRound(rounds[i], p.rounds[i]) {
			return fmt.Sprintf("round %d is %+v, reference has %+v", i, rounds[i], p.rounds[i])
		}
	}
	if len(hyps) != len(p.belief) {
		return fmt.Sprintf("%d top hypotheses, reference has %d", len(hyps), len(p.belief))
	}
	for i := range hyps {
		if hyps[i] != p.belief[i] {
			return fmt.Sprintf("top hypothesis %d is %+v, reference has %+v", i, hyps[i], p.belief[i])
		}
	}
	return ""
}

func sameRound(a, b client.Round) bool {
	if (a.Detection == nil) != (b.Detection == nil) {
		return false
	}
	if a.Detection != nil && *a.Detection != *b.Detection {
		return false
	}
	a.Detection, b.Detection = nil, nil
	return a == b
}

// sameLabels reports whether two rounds' labelings are identical.
func sameLabels(a, b []client.Labeling) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pair != b[i].Pair || a[i].Abstained != b[i].Abstained || len(a[i].Marked) != len(b[i].Marked) {
			return false
		}
		for j := range a[i].Marked {
			if a[i].Marked[j] != b[i].Marked[j] {
				return false
			}
		}
	}
	return true
}
