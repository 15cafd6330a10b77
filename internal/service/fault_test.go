package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/dataset"
	"exptrain/internal/persist"
	"exptrain/internal/persist/faulty"
	"exptrain/internal/persist/wal"
	"exptrain/internal/sampling"
)

// fastRetry keeps fault tests quick: full retry semantics, tiny delays.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestManagerEvictFailureDegradesSession(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 21, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 21})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)

	if err := m.Evict(ctx, info.ID); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Evict with dead store = %v, want ErrStoreUnavailable", err)
	}
	// The failed checkpoint must not drop the session: it stays live,
	// degraded, and still serves rounds.
	if live, parked := m.Counts(); live != 1 || parked != 0 {
		t.Fatalf("Counts = (%d, %d), want (1, 0)", live, parked)
	}
	got, err := m.Get(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Parked {
		t.Fatalf("Info = %+v, want degraded and not parked", got)
	}
	playRound(t, m, info.ID)

	h := m.Health()
	if h.OK || h.Degraded != 1 || h.StoreFailures == 0 || h.StoreError == "" {
		t.Fatalf("Health = %+v, want sick with one degraded session", h)
	}

	// Store heals → the next eviction succeeds and clears the mark.
	fs.ClearFaults()
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatalf("Evict after faults cleared: %v", err)
	}
	if h := m.Health(); !h.OK || h.Degraded != 0 || h.Parked != 1 {
		t.Fatalf("Health after recovery = %+v", h)
	}
	// Nothing was lost across the degraded episode: both rounds resume.
	got, err = m.Get(ctx, info.ID)
	if err != nil || !got.Parked {
		t.Fatalf("Get parked = %+v, %v", got, err)
	}
	pairs, err := m.Next(ctx, info.ID) // transparently unparks
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no pairs after resume")
	}
	if got, err = m.Get(ctx, info.ID); err != nil || got.Rounds != 2 {
		t.Fatalf("resumed Rounds = %d (%v), want 2", got.Rounds, err)
	}
}

// TestManagerUnparkFailedConcurrentAcquires races many acquires of one
// parked session against a store whose Gets always fail: every acquire
// must observe the session rolled back to parked (surfacing
// ErrStoreUnavailable), none may panic, deadlock, or lose the
// snapshot. Run under -race.
func TestManagerUnparkFailedConcurrentAcquires(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 5, FailRate: 1, Ops: []faulty.Op{faulty.OpGet},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 5})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)
	if err := m.Evict(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = m.TopBelief(ctx, info.ID, 5)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("worker %d: err = %v, want ErrStoreUnavailable", w, err)
		}
	}
	// Every failed unpark must roll back to parked — the snapshot is
	// still in the store, nothing leaked into the live map.
	if live, parked := m.Counts(); live != 0 || parked != 1 {
		t.Fatalf("Counts = (%d, %d), want (0, 1)", live, parked)
	}

	// Once the store heals, exactly one acquire resumes the session and
	// the round history is intact.
	fs.ClearFaults()
	if _, err := m.TopBelief(ctx, info.ID, 5); err != nil {
		t.Fatalf("TopBelief after faults cleared: %v", err)
	}
	got, err := m.Get(ctx, info.ID)
	if err != nil || got.Rounds != 1 {
		t.Fatalf("resumed Rounds = %d (%v), want 1", got.Rounds, err)
	}
}

// TestManagerSweepContinuesPastFailures: one session's checkpoint
// failure must not stop the sweep from parking the others, and the
// next sweep retries (and recovers) the degraded one.
func TestManagerSweepContinuesPastFailures(t *testing.T) {
	ctx := context.Background()
	// MaxAttempts 1 disables retries so FailEveryN maps 1:1 onto sweep
	// evictions: the 2nd Put fails, all others succeed.
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{Seed: 9, FailEveryN: 2})
	m := NewManager(Options{
		Store:   fs,
		Retry:   RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		IdleTTL: time.Minute,
	})
	base := time.Now()
	m.setNow(func() time.Time { return base })
	for i := 0; i < 2; i++ {
		if _, err := m.Create(ctx, datasetSpec(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	m.setNow(func() time.Time { return base.Add(time.Hour) })

	swept, err := m.Sweep(ctx)
	if !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Sweep err = %v, want ErrStoreUnavailable joined in", err)
	}
	if len(swept) != 1 {
		t.Fatalf("swept %v, want exactly one despite the failure", swept)
	}
	if live, parked := m.Counts(); live != 1 || parked != 1 {
		t.Fatalf("Counts = (%d, %d), want (1, 1)", live, parked)
	}
	if h := m.Health(); h.Degraded != 1 {
		t.Fatalf("Health.Degraded = %d, want 1", h.Degraded)
	}

	// The follow-up sweep is the degraded session's recovery path.
	swept, err = m.Sweep(ctx)
	if err != nil || len(swept) != 1 {
		t.Fatalf("second Sweep = %v, %v; want the degraded session parked", swept, err)
	}
	if h := m.Health(); h.Degraded != 0 || h.Parked != 2 {
		t.Fatalf("Health after recovery sweep = %+v", h)
	}
}

func TestManagerShutdownKeepsFailedSessionsResident(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 13, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m := NewManager(Options{Store: fs, Retry: fastRetry(), RetrySeed: 13})
	info, err := m.Create(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	playRound(t, m, info.ID)

	if err := m.Shutdown(ctx); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Shutdown with dead store = %v, want ErrStoreUnavailable", err)
	}
	// The session must not be dropped on the floor: still resident,
	// degraded, waiting for a second Shutdown once the store heals.
	if live, _ := m.Counts(); live != 1 {
		t.Fatalf("live = %d after failed Shutdown, want 1", live)
	}
	fs.ClearFaults()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after faults cleared: %v", err)
	}
	if live, parked := m.Counts(); live != 0 || parked != 1 {
		t.Fatalf("Counts = (%d, %d) after clean Shutdown, want (0, 1)", live, parked)
	}
}

// TestServerFaultSurface exercises the HTTP mapping of the fault layer:
// healthz flips to 503 while degraded, store failures answer 503 +
// Retry-After with kind "store_unavailable", and a draining manager is
// distinguishable from capacity pressure.
func TestServerFaultSurface(t *testing.T) {
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{
		Seed: 31, FailRate: 1, Ops: []faulty.Op{faulty.OpPut},
	})
	m, c, ts := newTestServer(t, Options{Store: fs, Retry: fastRetry(), RetrySeed: 31})

	var h Health
	c.expect(http.StatusOK, "GET", "/v1/healthz", nil, &h)
	if !h.OK {
		t.Fatalf("healthz = %+v, want ok on a fresh manager", h)
	}

	var info Info
	c.expect(http.StatusCreated, "POST", "/v1/sessions", CreateRequest{CSV: testCSV, Method: sampling.MethodRandom, K: 3, Seed: 11}, &info)
	c.playHTTPRound(info.ID)

	// Parking hits the dead store: 503, Retry-After, store_unavailable.
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, res)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE status = %d, want 503; body %s", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if kind := errKind(t, body); kind != "store_unavailable" {
		t.Fatalf("kind = %q, want store_unavailable", kind)
	}

	// healthz now reports the sick store and answers 503 for the LB.
	res, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, res)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503; body %s", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("unhealthy healthz without Retry-After")
	}

	// The degraded session still serves reads and rounds.
	c.expect(http.StatusOK, "GET", "/v1/sessions/"+info.ID, nil, &info)
	if !info.Degraded {
		t.Fatalf("Info = %+v, want Degraded", info)
	}
	c.playHTTPRound(info.ID)

	// Store heals: parking succeeds, healthz recovers.
	fs.ClearFaults()
	c.expect(http.StatusOK, "DELETE", "/v1/sessions/"+info.ID, nil, nil)
	c.expect(http.StatusOK, "GET", "/v1/healthz", nil, &h)
	if !h.OK || h.Degraded != 0 || h.Parked != 1 {
		t.Fatalf("healthz after recovery = %+v", h)
	}

	// Draining answers 503 shutting_down — a different kind than the
	// capacity 429, so clients can tell fail-over from shed-load.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, raw := c.do("POST", "/v1/sessions", CreateRequest{CSV: testCSV, K: 3}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503; body %s", status, raw)
	}
	if kind := errKind(t, raw); kind != "shutting_down" {
		t.Fatalf("kind = %q, want shutting_down", kind)
	}
}

func readBody(t *testing.T, res *http.Response) []byte {
	t.Helper()
	defer res.Body.Close()
	var buf [4096]byte
	n, _ := res.Body.Read(buf[:])
	return buf[:n]
}

func errKind(t *testing.T, raw []byte) string {
	t.Helper()
	var eb APIError
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("decoding error body %q: %v", raw, err)
	}
	return eb.Kind
}

// TestFaultEvictFailureKeepsPendingRound: an eviction whose checkpoint
// exhausts the retry policy must leave the session exactly as it was,
// presented round included. The annotator's submit of that round then
// lands, and the trajectory matches a session that was never evicted.
func TestFaultEvictFailureKeepsPendingRound(t *testing.T) {
	ctx := context.Background()
	fs := faulty.Wrap(persist.NewMemStore(), faulty.Config{Seed: 7, Ops: []faulty.Op{faulty.OpPut}})
	m := NewManager(Options{Store: fs, Retry: RetryPolicy{MaxAttempts: 1}})
	ref, err := m.Create(ctx, datasetSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Create(ctx, datasetSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Next(ctx, ref.ID); err != nil {
		t.Fatal(err)
	}
	pairs, err := m.Next(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	fs.SetFailRate(1)
	if err := m.Evict(ctx, info.ID); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("Evict with dead store = %v, want ErrStoreUnavailable", err)
	}
	fs.ClearFaults()

	labeled := make([]belief.Labeling, len(pairs))
	for i, p := range pairs {
		labeled[i] = belief.Labeling{Pair: dataset.NewPair(p.A, p.B)}
	}
	for _, id := range []string{ref.ID, info.ID} {
		if _, err := m.Submit(ctx, id, 0, labeled); err != nil {
			t.Fatalf("Submit(%s, round 0) after a failed eviction: %v", id, err)
		}
	}
	want, got := roundsFingerprint(t, m, ref.ID), roundsFingerprint(t, m, info.ID)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trajectory after a failed eviction diverged:\n got %v\nwant %v", got, want)
	}
}

// TestFaultHealthDuringUnpark: health reporting reads every live
// entry's WAL backlog while unparks publish resumed sessions into their
// placeholder entries. Run under -race, the two must not conflict.
func TestFaultHealthDuringUnpark(t *testing.T) {
	ctx := context.Background()
	ws, _, err := wal.OpenStore(persist.NewMemStore(), t.TempDir(), wal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	m := NewManager(Options{Store: ws, MaxSessions: 1})
	var ids []string
	for seed := uint64(3); seed < 5; seed++ {
		info, err := m.Create(ctx, datasetSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Health()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		// Each visit unparks one session and parks the other.
		if _, err := m.TopBelief(ctx, ids[i%2], 1); err != nil {
			t.Errorf("visit %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
