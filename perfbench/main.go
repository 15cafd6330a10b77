// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a single process and prints,
// as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 3200, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// rounds per second, op latency p50/p90, live heap). With -trace 1 the
// workload runs twice, untraced and then traced, and the metrics are
// the per-layer ones, measured from outside the program around calls
// into each layer; the spans are written to <workdir>/trace/.
//
// Every run checks the program's outputs against a sequential
// in-process reference and exits non-zero when they differ. See
// NOTES.md for why each workload exists and what each metric should
// move.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds int
	// clients is how many client goroutines drive a workload; workers
	// is how many goroutines compute the reference outputs.
	clients int
	workers int
	workdir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase; the work is sized from it")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the log and the trace output")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	// One client leaves a CPU for the garbage collector, the loopback
	// network stack and the rest of the machine, so the timings follow
	// the host's load less (NOTES.md, Steadiness).
	cfg := runConfig{seed: *seed, seconds: *seconds, clients: 1, workers: procs, workdir: *workdir}

	ctx := context.Background() //etlint:ignore ctxflow the benchmark's root context; the process has no caller to inherit one from
	res, err := run(ctx, wl, cfg, *traced == 1, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one invocation: the untraced run, and with traced also
// the traced run whose spans give the per-layer metrics.
func run(ctx context.Context, wl workload, cfg runConfig, traced bool, name string) (result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	plain, err := wl(ctx, cfg, nil, reps)
	if err != nil {
		return result{}, err
	}
	report(name+" untraced", plain)
	res := result{
		Correct:   len(plain.mismatches) == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
	}
	if !traced {
		res.Metrics, err = endToEnd(plain)
		return res, err
	}
	tr := newTracer()
	tracedPh, err := wl(ctx, cfg, tr, 1)
	if err != nil {
		return result{}, err
	}
	report(name+" traced", tracedPh)
	res.Correct = res.Correct && len(tracedPh.mismatches) == 0
	res.Attempted += tracedPh.attempted
	res.Failed += tracedPh.failed
	path := filepath.Join(cfg.workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := writeSpans(path, tracedPh.spans); err != nil {
		return result{}, err
	}
	printSummary(tracedPh.spans)
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	res.Metrics = perLayer(plain, tracedPh)
	if stage, share := largestStage(tracedPh.spans); stage != "" {
		fmt.Fprintf(os.Stderr, "perfbench: largest engine stage: %s (%.0f%% of engine stage time)\n", stage, 100*share)
	}
	return res, nil
}

// report logs a phase's outcome to stderr.
func report(what string, ph *phase) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds in %.3fs (cpu %.3fs), %d ops (%d failed), set-up %v\n",
		what, ph.rounds, ph.elapsed.Seconds(), ph.cpu.Seconds(), ph.attempted, ph.failed, ph.setup)
	if len(ph.failKinds) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failures by kind: %s\n", what, strings.Join(ph.failKinds, " "))
	}
	for i, m := range ph.mismatches {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: ... %d more mismatches\n", what, len(ph.mismatches)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: MISMATCH %s\n", what, m)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
