package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"exptrain/client"
	"exptrain/internal/persist"
	"exptrain/internal/persist/wal"
	"exptrain/internal/service"
)

// shape is one HTTP workload: which sessions exist, how many rounds
// each plays before and during the timed phase, and how rounds reach
// the server.
type shape struct {
	spec func(seed uint64, i int) client.CreateSession
	// perClient is how many sessions each client goroutine owns.
	perClient int
	// warm rounds per session are played during set-up; rounds more in
	// the timed phase. Both are fixed, so a session is the same age at
	// the same point of every run.
	warm, rounds int
	// maxLive is Options.MaxSessions; 0 keeps every session live.
	maxLive int
	// wal puts the write-ahead log under the store, with syncDelay
	// modelling each fsync.
	wal       bool
	syncDelay time.Duration
	// window > 0 sends rounds through the labelpool, window rounds per
	// enqueue, with up to depth windows in flight per client; 0 plays
	// each round as Next + Submit.
	window, depth int
}

// stack is one running server: manager, store, loopback listener and
// the client that talks to it.
type stack struct {
	mgr    *service.Manager
	srv    *http.Server
	served chan struct{}
	hc     *http.Client
	c      *client.Client
	store  *tracedStore
	inner  persist.Store
	wal    *wal.Store
	walDir string
	done   *durability
}

// startStack builds the server side of a workload. Untraced runs that
// need no completion signal hand the service a bare MemStore.
func startStack(ctx context.Context, sh shape, tr *tracer, workdir string) (*stack, error) {
	st := &stack{}
	st.inner = persist.NewMemStore()
	store := st.inner
	if sh.wal {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		ws, _, err := wal.OpenStore(store, dir, wal.StoreConfig{Wal: wal.Config{SyncDelay: sh.syncDelay}})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		st.wal, st.walDir, store = ws, dir, ws
		st.done = newDurability()
	}
	if tr != nil || st.done != nil {
		st.store = newTracedStore(store, tr, st.done)
		store = st.store
	}
	maxLive := sh.maxLive
	if maxLive == 0 {
		maxLive = 1 << 16
	}
	st.mgr = service.NewManager(service.Options{MaxSessions: maxLive, IdleTTL: time.Hour, Store: store})
	var h http.Handler = service.NewServer(st.mgr, service.ServerOptions{})
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close(ctx)
		return nil, err
	}
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln)
	}()
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	if tr != nil {
		rt = tracedTransport{next: rt}
	}
	st.hc = &http.Client{Transport: rt}
	st.c = client.New("http://"+ln.Addr().String(), client.Options{HTTP: st.hc, Retry: client.RetryPolicy{MaxAttempts: 1}})
	return st, nil
}

// close shuts the manager, server, log and connections down and removes
// the log directory.
func (st *stack) close(ctx context.Context) {
	if st.mgr != nil {
		_ = st.mgr.Shutdown(ctx)
	}
	if st.srv != nil {
		_ = st.srv.Shutdown(ctx) // a second Shutdown is a no-op
		<-st.served
	}
	if st.hc != nil {
		st.hc.CloseIdleConnections()
	}
	if st.wal != nil {
		_ = st.wal.Close()
	}
	if st.walDir != "" {
		_ = os.RemoveAll(st.walDir)
	}
}

// svcSession is one session as its client goroutine drives it.
type svcSession struct {
	idx    int
	id     string
	ann    *annotator
	round  int
	labels [][]client.Labeling
	broken bool
}

// svcRun is one set-up plus timed phase of an HTTP workload.
type svcRun struct {
	sh      shape
	cfg     runConfig
	tr      *tracer
	plans   []sessionPlan
	st      *stack
	clients [][]*svcSession
	tally   *tally
	// start is when the current phase began; op samples are timed from
	// it.
	start time.Time
}

// call runs one client request inside a client span.
func (w *svcRun) call(ctx context.Context, name string, parent uint64, fn func(context.Context) error) error {
	sp := w.tr.start("client."+name, parent, 0)
	err := fn(withSpan(ctx, sp))
	w.tr.finish(sp, err)
	return err
}

// specs lists every session's create request.
func (sh shape) specs(cfg runConfig) []client.CreateSession {
	out := make([]client.CreateSession, sh.perClient*cfg.clients)
	for i := range out {
		out[i] = sh.spec(cfg.seed, i)
	}
	return out
}

// runService plans the sessions, then performs the workload: set-up
// (repeated reps times; the last one is kept), the timed phase, and the
// output check.
func runService(ctx context.Context, sh shape, cfg runConfig, tr *tracer, reps int, plans []sessionPlan) (*phase, error) {
	ph := &phase{sessions: len(plans)}
	var w *svcRun
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			w.st.close(ctx)
		}
		ph.heapBase = liveHeap()
		t0 := time.Now()
		var err error
		w, err = setUp(ctx, sh, cfg, tr, plans)
		if err != nil {
			if w != nil {
				w.st.close(ctx)
			}
			return nil, err
		}
		runtime.GC()
		ph.setup = append(ph.setup, time.Since(t0))
	}
	defer w.st.close(ctx)
	w.tally = newTally() // set-up requests are not timed operations

	var health0 client.Health
	var wal0 persist.WalStats
	if tr != nil {
		health0, _ = w.st.c.Health(ctx)
		if w.st.store != nil {
			wal0, _ = w.st.store.WalStats()
		}
	}
	runtime.ReadMemStats(&ph.mem0)
	lats := make([][]sample, cfg.clients)
	rounds := make([]int, cfg.clients)
	cpu0 := cpuTime()
	w.start = time.Now()
	var wg sync.WaitGroup
	for cl := range w.clients {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			if sh.window > 0 {
				lats[cl], rounds[cl] = w.poolRounds(ctx, cl, sh.warm, sh.warm+sh.rounds)
			} else {
				lats[cl], rounds[cl] = w.interactiveRounds(ctx, cl, sh.rounds)
			}
		}(cl)
	}
	wg.Wait()
	ph.elapsed = time.Since(w.start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.mem1)
	ph.heapEnd = liveHeap()
	for cl := range lats {
		ph.ops = append(ph.ops, lats[cl]...)
		ph.rounds += rounds[cl]
	}
	ph.attempted, ph.failed, ph.failKinds = w.tally.counts()
	if tr != nil {
		ph.spans = tr.snapshot()
		h1, _ := w.st.c.Health(ctx)
		ph.storeFailures = h1.StoreFailures - health0.StoreFailures
		if w.st.store != nil {
			wal1, _ := w.st.store.WalStats()
			ph.walFsyncs = wal1.Fsyncs - wal0.Fsyncs
			ph.walAppended = wal1.Appended - wal0.Appended
			ph.walFsyncP99 = wal1.FsyncP99Ms
			ph.walUnflushedMax = int(w.st.store.unflushedMax.Load())
		}
	}
	ph.mismatches = w.check(ctx)
	return ph, nil
}

// setUp starts the stack, creates every session and plays the warm-up
// rounds, so connections are open and first-round work is done before
// timing starts.
func setUp(ctx context.Context, sh shape, cfg runConfig, tr *tracer, plans []sessionPlan) (*svcRun, error) {
	st, err := startStack(ctx, sh, tr, cfg.workdir)
	if err != nil {
		return nil, err
	}
	w := &svcRun{sh: sh, cfg: cfg, tr: tr, plans: plans, st: st, tally: newTally(), start: time.Now()}
	w.clients = make([][]*svcSession, cfg.clients)
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for cl := range w.clients {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			errs[cl] = w.setUpClient(ctx, cl)
		}(cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return w, err
	}
	if _, failed, kinds := w.tally.counts(); failed > 0 {
		return w, fmt.Errorf("warm-up failed: %v", kinds)
	}
	return w, nil
}

func (w *svcRun) setUpClient(ctx context.Context, cl int) error {
	for j := 0; j < w.sh.perClient; j++ {
		idx := cl + j*w.cfg.clients
		p := w.plans[idx]
		ann := p.annotator
		var info client.Info
		if err := w.call(ctx, "create", 0, func(ctx context.Context) error {
			var err error
			info, err = w.st.c.Create(ctx, p.spec)
			return err
		}); err != nil {
			return fmt.Errorf("creating session %d: %w", idx, err)
		}
		w.clients[cl] = append(w.clients[cl], &svcSession{idx: idx, id: info.ID, ann: &ann})
	}
	if w.sh.window > 0 {
		w.poolRounds(ctx, cl, 0, w.sh.warm)
	} else {
		w.interactiveRounds(ctx, cl, w.sh.warm)
	}
	return nil
}

// interactiveRounds plays n rounds of every session of client cl,
// cycling through the sessions: one op is Next, label, Submit.
func (w *svcRun) interactiveRounds(ctx context.Context, cl, n int) ([]sample, int) {
	var lats []sample
	done := 0
	for r := 0; r < n; r++ {
		for _, s := range w.clients[cl] {
			if s.broken {
				continue
			}
			t0 := time.Now()
			op := w.tr.start("op", 0, 0)
			err := w.playRound(ctx, op.ID, s)
			w.tr.finish(op, err)
			lat := time.Since(t0)
			w.tally.add(err)
			if err != nil {
				s.broken = true
				continue
			}
			lats = append(lats, sample{lat, time.Since(w.start)})
			done++
		}
	}
	return lats, done
}

func (w *svcRun) playRound(ctx context.Context, op uint64, s *svcSession) error {
	var pairs []client.Pair
	if err := w.call(ctx, "next", op, func(ctx context.Context) error {
		var err error
		pairs, err = w.st.c.Next(ctx, s.id)
		return err
	}); err != nil {
		return err
	}
	labels := s.ann.label(pairs)
	s.labels = append(s.labels, labels)
	if err := w.call(ctx, "submit", op, func(ctx context.Context) error {
		_, err := w.st.c.Submit(ctx, s.id, s.round, labels)
		return err
	}); err != nil {
		return err
	}
	s.round++
	return nil
}

// flight is one enqueued window waiting to become durable.
type flight struct {
	s    *svcSession
	wait *waiter
	t0   time.Time
	ack  int64
	op   span
}

// durableTimeout bounds the wait for one window's last round.
const durableTimeout = 30 * time.Second

// poolRounds sends rounds [from, to) of every session of client cl
// through the labelpool, window by window, cycling through the
// sessions. An op is one enqueue of a window; it completes when the
// store decorator sees AppendRounds return for the window's last
// round. Up to depth windows are in flight; a new one is sent only
// after the oldest completed, so the loop stays closed.
func (w *svcRun) poolRounds(ctx context.Context, cl, from, to int) ([]sample, int) {
	var (
		lats  []sample
		done  int
		queue []flight
	)
	settle := func(f flight) {
		timer := time.NewTimer(durableTimeout)
		defer timer.Stop()
		var err error
		select {
		case <-f.wait.ch:
		case <-timer.C:
			err = errNotDurable
		}
		if err == nil {
			w.tr.child(f.op, "labelpool.window", f.ack, w.tr.since(f.wait.at))
		}
		w.tr.finish(f.op, err)
		w.tally.add(err)
		if err != nil {
			f.s.broken = true
			return
		}
		lats = append(lats, sample{f.wait.at.Sub(f.t0), f.wait.at.Sub(w.start)})
		done += w.sh.window
	}
	for lo := from; lo < to; lo += w.sh.window {
		hi := min(lo+w.sh.window, to)
		for _, s := range w.clients[cl] {
			if s.broken {
				continue
			}
			if len(queue) >= w.sh.depth {
				settle(queue[0])
				queue = queue[1:]
			}
			subs := make([]client.Submission, 0, hi-lo)
			for r := lo; r < hi; r++ {
				subs = append(subs, client.Submission{Round: r, Labels: w.plans[s.idx].labels[r]})
			}
			f := flight{s: s, wait: w.st.done.expect(s.id, hi-1), t0: time.Now(), op: w.tr.start("op", 0, 0)}
			err := w.call(ctx, "enqueue", f.op.ID, func(ctx context.Context) error {
				_, err := w.st.c.Enqueue(ctx, s.id, subs)
				return err
			})
			if err != nil {
				w.st.done.forget(s.id, hi-1)
				w.tr.finish(f.op, err)
				w.tally.add(err)
				s.broken = true
				continue
			}
			f.ack = w.tr.since(time.Now())
			queue = append(queue, f)
		}
	}
	for _, f := range queue {
		settle(f)
	}
	return lats, done
}

// check compares every session's served state with its plan and
// returns the differences.
func (w *svcRun) check(ctx context.Context) []string {
	var (
		mu  sync.Mutex
		out []string
		wg  sync.WaitGroup
	)
	note := func(format string, args ...any) {
		mu.Lock()
		out = append(out, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	total := w.sh.warm + w.sh.rounds
	for cl := range w.clients {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for _, s := range w.clients[cl] {
				p := w.plans[s.idx]
				if w.sh.window == 0 {
					for r := range s.labels {
						if !sameLabels(s.labels[r], p.labels[r]) {
							note("session %d round %d: labels differ from the reference's (different pairs presented)", s.idx, r)
							break
						}
					}
				}
				hyps, err := w.st.c.Belief(ctx, s.id, topK)
				if err != nil {
					note("session %d: belief: %v", s.idx, err)
					continue
				}
				rounds, err := w.st.c.Rounds(ctx, s.id)
				if err != nil {
					note("session %d: rounds: %v", s.idx, err)
					continue
				}
				if d := compareSession(p, rounds, hyps); d != "" {
					note("session %d: %s", s.idx, d)
				}
			}
		}(cl)
	}
	wg.Wait()
	if w.st.wal != nil {
		out = append(out, w.checkRecovery(ctx, total)...)
	}
	return out
}

// checkRecovery closes the log and opens it again over the same inner
// store, as a restart after a crash would, and checks that every round
// acknowledged durable is recovered. Reading the live wal.Store instead
// races its compactor (see NOTES.md).
func (w *svcRun) checkRecovery(ctx context.Context, total int) []string {
	_ = w.st.srv.Shutdown(ctx)
	if err := w.st.wal.Close(); err != nil {
		return []string{fmt.Sprintf("closing the log: %v", err)}
	}
	ws, _, err := wal.OpenStore(w.st.inner, w.st.walDir, wal.StoreConfig{})
	if err != nil {
		return []string{fmt.Sprintf("reopening the log: %v", err)}
	}
	defer ws.Close()
	var out []string
	for _, ss := range w.clients {
		for _, s := range ss {
			snap, err := ws.Get(ctx, s.id)
			switch {
			case err != nil:
				out = append(out, fmt.Sprintf("session %d: recovering: %v", s.idx, err))
			case len(snap.History) != total:
				out = append(out, fmt.Sprintf("session %d: recovery finds %d rounds, %d were acknowledged durable", s.idx, len(snap.History), total))
			}
		}
	}
	return out
}
