package main

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// runCaptured runs etload in-process with cfg and returns the lines it
// printed to stdout — the stream `make loadsmoke`, `make walbench` and
// `make benchcheck` pipe into benchjson.
func runCaptured(t *testing.T, cfg config) []string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(cfg)
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// benchName returns the benchmark name of line when it has the shape
// cmd/benchjson accepts — "BenchmarkName N value unit [value unit]...",
// with an integer N and float values — and "" otherwise.
func benchName(line string) string {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return ""
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return ""
	}
	for i := 2; i < len(fields); i += 2 {
		if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
			return ""
		}
	}
	return fields[0]
}

// TestRunModesEmitBenchjsonLines plays each etload mode at a tiny size
// with no simulated delays, and checks that every line it prints is a
// benchjson result line and that each mode reports its benchmarks.
func TestRunModesEmitBenchjsonLines(t *testing.T) {
	tiny := config{sessions: 2, rounds: 2, window: 2, mode: "both", dataset: "OMDB", rows: 24, k: 2, seed: 1}
	cases := []struct {
		name string
		cfg  func(config) config
		want []string
	}{
		{"inproc-both", func(c config) config { c.inproc = true; return c },
			[]string{"BenchmarkLabelpoolBaseline", "BenchmarkLabelpoolPool", "BenchmarkLabelpoolSpeedup"}},
		{"shards", func(c config) config { c.shardCounts = "1,2"; return c },
			[]string{"BenchmarkShardServe/shards=1", "BenchmarkShardServe/shards=2", "BenchmarkShardScaling2v1"}},
		{"wal", func(c config) config { c.walCompare = true; return c },
			[]string{"BenchmarkWalSnapshot", "BenchmarkWalCommit", "BenchmarkWalSpeedup"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, line := range runCaptured(t, tc.cfg(tiny)) {
				name := benchName(line)
				if name == "" {
					t.Fatalf("line is not benchjson input: %q", line)
				}
				got = append(got, name)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("benchmarks = %v, want %v", got, tc.want)
			}
		})
	}
}
