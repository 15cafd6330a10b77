package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"exptrain/internal/belief"
	"exptrain/internal/sampling"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden series")

// goldenConfigs are the seeded conditions whose full output series are
// pinned bit-for-bit. They cover both prior regimes, the four paper
// samplers plus the extra ones, and two datasets, so any change to the
// partition/encoding substrate that perturbs experiment output — even
// in the last float bit — fails here.
func goldenConfigs() map[string]Config {
	return map[string]Config{
		"omdb_uniform": {
			Dataset:      "OMDB",
			Rows:         120,
			Degree:       0.1,
			TrainerPrior: belief.PriorSpec{Kind: belief.PriorRandom},
			LearnerPrior: belief.PriorSpec{Kind: belief.PriorUniform, D: 0.9},
			Iterations:   8,
			Runs:         2,
			BaseSeed:     7,
			Methods:      append(sampling.Methods(), sampling.MethodQBC, sampling.MethodEpsilonGreedy),
		},
		"hospital_dataest": {
			Dataset:      "Hospital",
			Rows:         100,
			Degree:       0.2,
			TrainerPrior: belief.PriorSpec{Kind: belief.PriorRandom},
			LearnerPrior: belief.PriorSpec{Kind: belief.PriorDataEstimate},
			Iterations:   6,
			Runs:         2,
			BaseSeed:     3,
		},
	}
}

// hexSeries renders a float series with strconv 'x' formatting so the
// golden file pins exact bit patterns, not rounded decimals.
func hexSeries(s []float64) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = strconv.FormatFloat(v, 'x', -1, 64)
	}
	return out
}

type goldenMethod struct {
	Method    string   `json:"method"`
	MAE       []string `json:"mae"`
	F1        []string `json:"f1"`
	Precision []string `json:"precision"`
	Recall    []string `json:"recall"`
}

func goldenOf(res *Result) []goldenMethod {
	out := make([]goldenMethod, 0, len(res.Methods))
	for _, m := range res.Methods {
		out = append(out, goldenMethod{
			Method:    m.Method,
			MAE:       hexSeries(m.MAE),
			F1:        hexSeries(m.F1),
			Precision: hexSeries(m.Precision),
			Recall:    hexSeries(m.Recall),
		})
	}
	return out
}

// TestGoldenSeries proves the perf substrate (dictionary encoding, PLI
// cache, incremental pool) is output-equivalent to the original string
// implementation: the series below were recorded before the
// optimization landed and must never move. Regenerate deliberately
// with: go test ./internal/experiments -run TestGoldenSeries -update
func TestGoldenSeries(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(goldenOf(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if string(want) != string(got)+"\n" {
				t.Errorf("seeded experiment series diverged from recorded golden %s;\nthe optimized path is not output-equivalent to the naive one", path)
			}
		})
	}
}
