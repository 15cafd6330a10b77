package main

import (
	"strings"
	"time"
)

// engineStages are the stage spans the stageObserver records.
var engineStages = []string{"sampling.select", "agents.label", "belief.update", "game.score"}

// spanIndex groups a traced run's spans for the per-layer metrics.
type spanIndex struct {
	byName map[string][]span
	kids   map[uint64][]span
	self   map[uint64]time.Duration
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: make(map[string][]span), kids: make(map[uint64][]span), self: selfTimes(spans)}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
		}
	}
	return ix
}

func durs(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func (ix spanIndex) p50(name string) float64 { return median(ms(durs(ix.byName[name]))) }

func (ix spanIndex) busy(name string) float64 { return sumSeconds(durs(ix.byName[name])) }

func (ix spanIndex) count(name string) float64 { return float64(len(ix.byName[name])) }

// withPrefix returns the spans whose name starts with prefix.
func (ix spanIndex) withPrefix(prefix string) []span {
	var out []span
	for name, ss := range ix.byName {
		if strings.HasPrefix(name, prefix) {
			out = append(out, ss...)
		}
	}
	return out
}

// hasChild reports whether s has a child span of the given name.
func (ix spanIndex) hasChild(s span, name string) bool {
	for _, k := range ix.kids[s.ID] {
		if k.Name == name {
			return true
		}
	}
	return false
}

// perLayer computes the per-layer metrics: runtime figures from the
// untraced phase, everything else from the traced phase's spans.
func perLayer(plain, tp *phase) map[string]metric {
	ix := indexSpans(tp.spans)
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// client: the benchmark's timed client.Client calls.
	for _, op := range []string{"next", "submit", "enqueue", "create"} {
		put("client."+op+"_p50_ms", ix.p50("client."+op), "ms")
	}
	clientSpans := ix.withPrefix("client.")
	var clientFailed float64
	var transport []time.Duration
	for _, s := range clientSpans {
		if s.Err {
			clientFailed++
		}
		if len(ix.kids[s.ID]) > 0 {
			transport = append(transport, ix.self[s.ID])
		}
	}
	put("client.requests", float64(len(clientSpans)), "count")
	put("client.failed", clientFailed, "count")

	// service: the middleware's ServeHTTP spans.
	serve := ix.withPrefix("service.")
	var s4xx, s429, s5xx float64
	var unparked, live []time.Duration
	for _, s := range serve {
		switch {
		case s.Status == 429:
			s4xx++
			s429++
		case s.Status >= 500:
			s5xx++
		case s.Status >= 400:
			s4xx++
		}
		switch s.Name {
		case "service.next", "service.submit", "service.enqueue":
			if ix.hasChild(s, "persist.get") {
				unparked = append(unparked, s.dur())
			} else {
				live = append(live, s.dur())
			}
		}
	}
	put("service.serve_busy_s", sumSeconds(durs(serve)), "s")
	for _, op := range []string{"next", "submit", "enqueue"} {
		put("service.serve_"+op+"_p50_ms", ix.p50("service."+op), "ms")
	}
	put("service.transport_p50_ms", median(ms(transport)), "ms")
	put("service.serve_unparked_p50_ms", median(ms(unparked)), "ms")
	put("service.serve_live_p50_ms", median(ms(live)), "ms")
	put("service.status_4xx", s4xx, "count")
	put("service.status_429", s429, "count")
	put("service.status_5xx", s5xx, "count")
	put("service.store_failures", float64(tp.storeFailures), "count")

	// persist: the Options.Store decorator.
	for _, op := range []string{"put", "get"} {
		name := "persist." + op
		put(name+"_count", ix.count(name), "count")
		put(name+"_p50_ms", ix.p50(name), "ms")
		put(name+"_busy_s", ix.busy(name), "s")
	}
	var persistFailed float64
	for _, s := range ix.withPrefix("persist.") {
		if s.Err {
			persistFailed++
		}
	}
	put("persist.failed", persistFailed, "count")

	// wal: the decorator's AppendRounds plus the WalStats delta.
	appends := ms(durs(ix.byName["wal.append"]))
	put("wal.append_count", float64(len(appends)), "count")
	put("wal.append_p50_ms", percentile(appends, 0.5), "ms")
	put("wal.append_p90_ms", percentile(appends, 0.9), "ms")
	put("wal.append_busy_s", ix.busy("wal.append"), "s")
	put("wal.fsyncs", float64(tp.walFsyncs), "count")
	perFsync := 0.0
	if tp.walFsyncs > 0 {
		perFsync = float64(tp.walAppended) / float64(tp.walFsyncs)
	}
	put("wal.rounds_per_fsync", perFsync, "round/fsync")
	put("wal.fsync_p99_ms", tp.walFsyncP99, "ms")
	put("wal.unflushed_max", float64(tp.walUnflushedMax), "count")

	// labelpool: enqueue acknowledged → window durable.
	put("labelpool.window_wait_p50_ms", ix.p50("labelpool.window"), "ms")

	// engine stages, from the stageObserver.
	put("sampling.select_busy_s", ix.busy("sampling.select"), "s")
	put("sampling.select_p50_ms", ix.p50("sampling.select"), "ms")
	put("agents.label_busy_s", ix.busy("agents.label"), "s")
	put("belief.update_busy_s", ix.busy("belief.update"), "s")
	put("belief.update_p50_ms", ix.p50("belief.update"), "ms")
	put("game.score_busy_s", ix.busy("game.score"), "s")
	put("game.rounds", ix.count("game.score"), "count")

	// runtime, from the untraced phase.
	perRound, perSession := 0.0, 0.0
	if plain.rounds > 0 {
		perRound = float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc) / 1024 / float64(plain.rounds)
	}
	if plain.sessions > 0 && plain.heapEnd > plain.heapBase {
		perSession = float64(plain.heapEnd-plain.heapBase) / 1024 / float64(plain.sessions)
	}
	put("runtime.alloc_kib_per_round", perRound, "KiB")
	put("runtime.gc_cycles", float64(plain.mem1.NumGC-plain.mem0.NumGC), "count")
	put("runtime.heap_kib_per_session", perSession, "KiB")

	plainRate := float64(plain.rounds) / plain.elapsed.Seconds()
	tracedRate := float64(tp.rounds) / tp.elapsed.Seconds()
	put("trace.overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	return m
}

// largestStage names the engine stage with the most busy time and its
// share of all stage time ("" when no stage ran).
func largestStage(spans []span) (string, float64) {
	ix := indexSpans(spans)
	best, bestBusy, total := "", 0.0, 0.0
	for _, name := range engineStages {
		b := ix.busy(name)
		total += b
		if b > bestBusy {
			best, bestBusy = name, b
		}
	}
	if total == 0 {
		return "", 0
	}
	return best, bestBusy / total
}
