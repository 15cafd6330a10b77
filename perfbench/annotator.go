package main

import (
	"fmt"

	"exptrain/client"
	"exptrain/internal/datagen"
	"exptrain/internal/fd"
)

// Annotator policy. The rates are fixed so every run labels the same
// way for a given seed; they are high enough that revisions and misses
// happen in most sessions.
const (
	// abstainPct is the chance (in percent) that a presented pair is
	// skipped.
	abstainPct = 5
	// missPct is the chance that a pair violating an exact FD is first
	// labelled clean; the miss is queued for a later revision.
	missPct = 25
	// revisePct is the chance that a round also revises the oldest
	// missed pair from an earlier round.
	revisePct = 40
)

// rule is one exact FD of the dataset as the annotator checks it.
type rule struct {
	lhs []int
	rhs int
}

// annotator is the benchmark's seeded simulated annotator for one
// session. It knows the dataset's exact FDs (regenerated with
// datagen.ByName) and marks a pair's RHS attribute dirty when the pair
// agrees on an exact FD's LHS but not on its RHS. Seeded draws make it
// abstain now and then, miss some violations, and revise missed pairs
// in later rounds, so the learner's belief update and revision paths do
// real work. Its labels depend only on its seed and the pairs it is
// shown, so replaying the same pairs gives the same labels.
type annotator struct {
	rules  []rule
	seed   uint64
	round  int
	missed []client.Labeling
}

// newAnnotator builds the annotator of session idx, whose spec names
// the dataset; seed is the benchmark seed.
func newAnnotator(spec client.CreateSession, seed uint64, idx int) (*annotator, error) {
	gen, err := datagen.ByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	var rules []rule
	for _, f := range gen(spec.Rows, spec.Seed).ExactFDs {
		rules = append(rules, fromFD(f))
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("dataset %s has no exact FDs to annotate with", spec.Dataset)
	}
	return &annotator{rules: rules, seed: mix(seed, uint64(idx)+1)}, nil
}

func fromFD(f fd.FD) rule { return rule{lhs: f.LHS.Attrs(), rhs: f.RHS} }

// label returns the round's labelings for the presented pairs, in
// presentation order, plus at most one revision of an earlier miss.
func (a *annotator) label(pairs []client.Pair) []client.Labeling {
	r := uint64(a.round)
	a.round++
	out := make([]client.Labeling, 0, len(pairs)+1)
	for _, p := range pairs {
		l := client.Labeling{Pair: [2]int{p.A, p.B}}
		draw := mix(a.seed, r<<32|uint64(p.A)<<16|uint64(p.B)) % 100
		switch marked := a.violations(p.ATuple, p.BTuple); {
		case draw < abstainPct:
			l.Abstained = true
		case len(marked) > 0 && draw < abstainPct+missPct:
			a.missed = append(a.missed, client.Labeling{Pair: l.Pair, Marked: marked})
		default:
			l.Marked = marked
		}
		out = append(out, l)
	}
	if len(a.missed) > 0 && mix(a.seed, r)%100 < revisePct {
		// The pool may present a pair again; a round must not label it
		// twice, so the revision skips pairs shown in this round.
		for i, m := range a.missed {
			if !presented(pairs, m.Pair) {
				out = append(out, m)
				a.missed = append(a.missed[:i], a.missed[i+1:]...)
				break
			}
		}
	}
	return out
}

func presented(pairs []client.Pair, p [2]int) bool {
	for _, q := range pairs {
		if q.A == p[0] && q.B == p[1] {
			return true
		}
	}
	return false
}

// violations lists the RHS attributes of exact FDs the two rendered
// tuples violate, ascending and without repeats.
func (a *annotator) violations(x, y []string) []int {
	var marked fd.AttrSet
	for _, rl := range a.rules {
		agree := true
		for _, i := range rl.lhs {
			if x[i] != y[i] {
				agree = false
				break
			}
		}
		if agree && x[rl.rhs] != y[rl.rhs] {
			marked = marked.Add(rl.rhs)
		}
	}
	return marked.Attrs()
}

// mix is the splitmix64 finalizer over a seed and a value: a cheap,
// well-spread hash that stands in for a seeded generator wherever a
// draw must depend only on its inputs.
func mix(seed, v uint64) uint64 {
	z := seed + v*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
