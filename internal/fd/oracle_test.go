package fd

// The original string-keyed implementations, kept as the test oracles
// the dictionary-encoded and PLI fast paths are property-tested
// against. Only tests call them, so they live in a test file.

import (
	"sort"

	"exptrain/internal/dataset"
)

// PartitionOnNaive is the original string-keyed implementation, retained
// as the reference the dictionary/PLI fast paths are property-tested
// against.
func PartitionOnNaive(rel *dataset.Relation, x AttrSet) *Partition {
	attrs := x.Attrs()
	groups := make(map[string][]int32)
	for i := 0; i < rel.NumRows(); i++ {
		key := rel.ProjectKey(i, attrs)
		groups[key] = append(groups[key], int32(i))
	}
	p := &Partition{Rows: rel.NumRows()}
	for _, rows := range groups {
		if len(rows) >= 2 {
			p.Classes = append(p.Classes, rows)
		}
	}
	sort.Slice(p.Classes, func(i, j int) bool { return p.Classes[i][0] < p.Classes[j][0] })
	return p
}

// ComputeStatsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against.
func ComputeStatsNaive(f FD, rel *dataset.Relation) Stats {
	lhs := f.LHS.Attrs()
	n := rel.NumRows()
	groups := make(map[string]map[string]int)
	sizes := make(map[string]int)
	for i := 0; i < n; i++ {
		key := rel.ProjectKey(i, lhs)
		rhsVal := rel.Value(i, f.RHS)
		cls := groups[key]
		if cls == nil {
			cls = make(map[string]int)
			groups[key] = cls
		}
		cls[rhsVal]++
		sizes[key]++
	}
	st := Stats{Rows: n}
	for key, g := range sizes {
		st.Agreeing += g * (g - 1) / 2
		for _, c := range groups[key] {
			st.Compliant += c * (c - 1) / 2
		}
	}
	st.Violating = st.Agreeing - st.Compliant
	return st
}

// AgreeingPairsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against (including the exact enumeration order, which
// the sampling pool's determinism rides on).
func AgreeingPairsNaive(f FD, rel *dataset.Relation) []dataset.Pair {
	lhs := f.LHS.Attrs()
	n := rel.NumRows()
	groups := make(map[string][]int)
	order := make([]string, 0)
	for i := 0; i < n; i++ {
		key := rel.ProjectKey(i, lhs)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	var out []dataset.Pair
	for _, key := range order {
		rows := groups[key]
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				out = append(out, dataset.NewPair(rows[a], rows[b]))
			}
		}
	}
	return out
}

// MinorityRowsNaive is the original string-keyed implementation,
// retained as the reference the dictionary/PLI fast paths are
// property-tested against.
func MinorityRowsNaive(f FD, rel *dataset.Relation) map[int]struct{} {
	lhs := f.LHS.Attrs()
	groups := make(map[string][]int)
	for i := 0; i < rel.NumRows(); i++ {
		key := rel.ProjectKey(i, lhs)
		groups[key] = append(groups[key], i)
	}
	flagged := make(map[int]struct{})
	for _, rows := range groups {
		if len(rows) < 2 {
			continue
		}
		counts := make(map[string]int)
		for _, r := range rows {
			counts[rel.Value(r, f.RHS)]++
		}
		if len(counts) < 2 {
			continue
		}
		// Plurality value, ties toward the smallest value.
		vals := make([]string, 0, len(counts))
		for v := range counts {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		majority := vals[0]
		for _, v := range vals[1:] {
			if counts[v] > counts[majority] {
				majority = v
			}
		}
		maxClass := int(minorityFraction * float64(len(rows)))
		if maxClass < 1 {
			maxClass = 1
		}
		for _, r := range rows {
			v := rel.Value(r, f.RHS)
			if v != majority && counts[v] <= maxClass {
				flagged[r] = struct{}{}
			}
		}
	}
	return flagged
}
