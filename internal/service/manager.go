package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"exptrain/internal/belief"
	"exptrain/internal/datagen"
	"exptrain/internal/dataset"
	"exptrain/internal/errgen"
	"exptrain/internal/fd"
	"exptrain/internal/game"
	"exptrain/internal/persist"
	"exptrain/internal/repair"
	"exptrain/internal/sampling"
	"exptrain/internal/stats"
)

// Source says where a session's relation comes from. Exactly one of
// CSV or Dataset must be set. The source is kept for the session's
// whole life: an evicted session's relation is rebuilt from it when the
// session is resumed (snapshots deliberately do not embed relations).
type Source struct {
	// Dataset is a synthetic paper dataset name ("OMDB", "AIRPORT",
	// "Hospital", "Tax"); Rows and Seed make the build deterministic.
	Dataset string
	Rows    int
	Seed    uint64
	// CSV is an uploaded relation (header row + records).
	CSV []byte
}

// build materializes the relation.
func (s Source) build() (*dataset.Relation, error) {
	rel, _, err := s.materialize()
	return rel, err
}

// materialize builds the relation and, for synthetic sources, also
// returns the generated dataset (its exact FDs are the evaluator's
// injection targets). ds is nil for CSV sources.
func (s Source) materialize() (rel *dataset.Relation, ds *datagen.Dataset, err error) {
	switch {
	case len(s.CSV) > 0 && s.Dataset != "":
		return nil, nil, fmt.Errorf("service: source has both CSV and dataset %q", s.Dataset)
	case len(s.CSV) > 0:
		rel, err = dataset.ReadCSV(bytes.NewReader(s.CSV))
		return rel, nil, err
	case s.Dataset != "":
		gen, err := datagen.ByName(s.Dataset)
		if err != nil {
			return nil, nil, err
		}
		rows := s.Rows
		if rows <= 0 {
			rows = 240
		}
		d := gen(rows, s.Seed)
		return d.Rel, d, nil
	default:
		return nil, nil, fmt.Errorf("service: source needs a dataset name or CSV data")
	}
}

// Spec configures one hosted session.
type Spec struct {
	Source Source
	// Method is the learner's response strategy (MethodDefault →
	// StochasticUS).
	Method sampling.Method
	// Gamma is the stochastic temperature (DefaultGamma when zero).
	Gamma float64
	// K is pairs per round (game.Session default when zero).
	K int
	// MaxLHS bounds the enumerated hypothesis space (default 2).
	MaxLHS int
	// MaxFDs truncates the space (0 = no cap).
	MaxFDs int
	// Seed drives pool construction and stochastic selection.
	Seed uint64
	// Eval turns on per-round held-out detection scoring (§C.1's F1
	// series): errors are injected into the generated relation at the
	// given Degree against the dataset's exact FDs, 30% of the rows are
	// held out, and every submitted round scores the learner's believed
	// model on that split. Requires a synthetic Dataset source — a CSV
	// upload has no ground-truth FDs to injure or score against.
	Eval bool
	// Degree is the injected violation degree in (0, 1) when Eval is
	// set (default 0.1).
	Degree float64
}

// Info is a session's externally visible state.
type Info struct {
	ID        string          `json:"id"`
	Method    sampling.Method `json:"method"`
	K         int             `json:"k"`
	Rounds    int             `json:"rounds"`
	Pending   int             `json:"pending"`
	Remaining int             `json:"remaining"`
	Parked    bool            `json:"parked"`
	// Degraded marks a live session whose last checkpoint exhausted the
	// store retry policy: its state exists only in memory until a later
	// checkpoint succeeds. Degraded sessions keep serving rounds and are
	// skipped by eviction while any healthy victim exists.
	Degraded bool `json:"degraded,omitempty"`
	Rows     int  `json:"rows"`
	Space    int  `json:"space"`
}

// PairView is one presented pair with its rendered tuples, so a client
// needs no separate data fetch to show the annotator the rows.
type PairView struct {
	A      int      `json:"a"`
	B      int      `json:"b"`
	ATuple []string `json:"a_tuple"`
	BTuple []string `json:"b_tuple"`
}

// HypothesisView is one FD of the learner's belief, rendered.
type HypothesisView struct {
	FD         string  `json:"fd"`
	Confidence float64 `json:"confidence"`
	CILow      float64 `json:"ci_low"`
	CIHigh     float64 `json:"ci_high"`
}

// RepairView is one suggested cell repair, rendered.
type RepairView struct {
	Row        int     `json:"row"`
	Attr       string  `json:"attr"`
	Old        string  `json:"old"`
	New        string  `json:"new"`
	Confidence float64 `json:"confidence"`
	Source     string  `json:"source"`
}

// Options tunes the manager.
type Options struct {
	// Shards is the number of serving shards sessions are partitioned
	// across by rendezvous hash on their id (default 1). Each shard has
	// its own lock domain — live map, parking, labelpools, drains,
	// stream wakeups — so shards never contend with each other; routing
	// is deterministic in the id, so a fixed shard count is required
	// across restarts of a store-backed deployment (parked sessions are
	// found on the shard their id hashes to).
	Shards int
	// MaxSessions bounds resident sessions across all shards (default
	// 128); each shard enforces ceil(MaxSessions/Shards). At the bound,
	// creating or unparking first tries to evict the least-recently-used
	// idle session on the session's shard; if none is evictable the
	// request fails with ErrTooManySessions.
	MaxSessions int
	// IdleTTL parks sessions idle at least this long on each Sweep
	// (default 15 minutes).
	IdleTTL time.Duration
	// Store receives eviction and shutdown checkpoints (default: a
	// fresh in-memory store). Shards share it — wrap it in a
	// persist.MultiStore to replicate checkpoints across backing
	// stores.
	Store persist.Store
	// Retry bounds retries of store operations (zero value → defaults:
	// 4 attempts, 5ms base backoff, 250ms cap).
	Retry RetryPolicy
	// RetrySeed seeds the backoff jitter streams (default 1). Each
	// shard derives its own stream from (RetrySeed, shard id), so
	// schedules are reproducible in fault-injection tests yet never
	// aligned across shards after a store outage.
	RetrySeed uint64
	// MaxQueuedSubmissions bounds each session's labelpool queue
	// (default 64). Enqueueing beyond it fails with
	// ErrSubmissionBacklog (HTTP 429 + Retry-After).
	MaxQueuedSubmissions int
	// DrainBatch caps how many queued rounds one drain applies under a
	// single entry-lock acquisition (default 16) — large enough to
	// amortize locking and checkpoint scheduling, small enough that
	// interactive requests interleave with a deep backlog.
	DrainBatch int
	// CheckpointEvery, when positive, has the labelpool drain
	// checkpoint a session after that many applied rounds, amortizing
	// durability across the batch instead of paying a snapshot per
	// round (0 = checkpoint only on park/shutdown/explicit snapshot).
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 128
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = 15 * time.Minute
	}
	if o.Store == nil {
		o.Store = persist.NewMemStore()
	}
	o.Retry = o.Retry.withDefaults()
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.MaxQueuedSubmissions <= 0 {
		o.MaxQueuedSubmissions = 64
	}
	if o.DrainBatch <= 0 {
		o.DrainBatch = 16
	}
	return o
}

// Manager is the front tier of the session service: it mints session
// ids, runs every per-session operation against the session's home
// shard, picked by rendezvous hash (see route.go), and fans shard-wide
// operations (List, Sweep, Health, Shutdown) out across the shard set.
// All methods are safe for concurrent use. All per-session state and
// locking lives in the shards — the only mutable state here is the id
// sequence and the draining flag.
type Manager struct {
	opts   Options
	store  persist.Store
	shards []*shard

	mu sync.Mutex
	// seq numbers sessions; guarded by mu. Ids are minted globally so
	// they stay dense and unique; the hash of the id then decides the
	// home shard.
	seq uint64
	// draining rejects new sessions during Shutdown; guarded by mu.
	// Each shard additionally carries its own flag for its request
	// paths.
	draining bool

	// drainSignal is closed when Shutdown begins, so streams close
	// promptly instead of waiting out a heartbeat.
	drainSignal chan struct{}
}

// NewManager builds a manager with opts.Shards serving shards.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	perShard := (opts.MaxSessions + opts.Shards - 1) / opts.Shards
	m := &Manager{
		opts:        opts,
		store:       opts.Store,
		shards:      make([]*shard, opts.Shards),
		drainSignal: make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i] = newShard(i, opts, perShard)
	}
	return m
}

// Store returns the checkpoint store.
func (m *Manager) Store() persist.Store { return m.store }

// setNow installs a clock on every shard — a test hook.
func (m *Manager) setNow(now func() time.Time) {
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.now = now
		sh.mu.Unlock()
	}
}

// newEntry builds the entry hosting a session of spec — a fresh one,
// or one resumed from snap when it is non-nil — with its
// stats-collecting observer, and with a WAL recorder alongside when
// wal is set, so every scored round also yields a WAL delta. mint
// names the entry and runs only once the build succeeded, so a failed
// build never consumes a session id. Create, Resume and unparking all
// build entries here. Everything is deterministic in the spec
// (injection, split and pool all derive from spec.Seed), so an evicted
// session unparks onto an identical world — and a sharded deployment
// replays identically to a single-shard one.
func newEntry(spec Spec, snap *persist.Snapshot, wal bool, mint func() (string, error)) (*entry, error) {
	rel, ds, err := spec.Source.materialize()
	if err != nil {
		return nil, err
	}
	sampler, err := sampling.New(spec.Method, spec.Gamma)
	if err != nil {
		return nil, err
	}
	e := &entry{spec: spec, stats: &roundStats{eval: spec.Eval}}
	cfg := game.SessionConfig{
		Relation: rel,
		Sampler:  sampler,
		K:        spec.K,
		Seed:     spec.Seed,
		Observer: e.stats,
	}
	if wal {
		e.wal = &walRecorder{eval: spec.Eval}
		cfg.Observer = game.MultiObserver(e.stats, e.wal)
	}
	if spec.Eval {
		if ds == nil {
			return nil, fmt.Errorf("service: eval needs a synthetic dataset source (no ground-truth FDs for CSV data)")
		}
		degree := spec.Degree
		if degree == 0 {
			degree = 0.1
		}
		injected, err := errgen.InjectDegree(rel, errgen.DegreeConfig{
			FDs:        ds.ExactFDs,
			Degree:     degree,
			MaxChanges: rel.NumRows() / 3,
			Seed:       spec.Seed ^ 0xE44,
		})
		if err != nil {
			return nil, err
		}
		rel = injected.Rel
		cfg.Relation = rel
		// 30% held-out test split, as in the paper's evaluation.
		rng := stats.NewRNG(spec.Seed ^ 0x9A3E)
		_, testRows := rel.Split(rng.Split(), 0.7)
		dirty := make(map[int]struct{})
		for newIdx, orig := range testRows {
			if _, bad := injected.DirtyRows[orig]; bad {
				dirty[newIdx] = struct{}{}
			}
		}
		cfg.Eval = &game.Evaluator{TestRel: rel.Subset(testRows), DirtyRows: dirty}
	}
	if snap != nil {
		if e.sess, err = game.ResumeSession(snap, cfg); err != nil {
			return nil, err
		}
		// Restored rounds replay without observer events; backfill them.
		e.stats.prime(e.sess.Records())
	} else {
		if cfg.Space, err = hypothesisSpace(spec, rel); err != nil {
			return nil, err
		}
		if e.sess, err = game.NewSession(cfg); err != nil {
			return nil, err
		}
	}
	if e.id, err = mint(); err != nil {
		return nil, err
	}
	if e.wal != nil {
		// Stamped before any round flows: deltas are immutable once
		// recorded.
		e.wal.id = e.id
		e.wal.bind(e.sess)
	}
	return e, nil
}

// hypothesisSpace enumerates a fresh session's FD space.
func hypothesisSpace(spec Spec, rel *dataset.Relation) (*fd.Space, error) {
	maxLHS := spec.MaxLHS
	if maxLHS <= 0 {
		maxLHS = 2
	}
	fds, err := fd.Enumerate(fd.SpaceConfig{
		Arity:  rel.Schema().Arity(),
		MaxLHS: maxLHS,
		MaxFDs: spec.MaxFDs,
	})
	if err != nil {
		return nil, err
	}
	return fd.NewSpace(fds)
}

// mintID draws the next session id, or ErrShuttingDown while draining.
func (m *Manager) mintID() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return "", ErrShuttingDown
	}
	m.seq++
	return fmt.Sprintf("sess-%d", m.seq), nil
}

// Create builds and registers a new session on its home shard,
// evicting an idle session there if the shard is full. The returned
// Info carries the new id.
func (m *Manager) Create(ctx context.Context, spec Spec) (Info, error) {
	return m.open(ctx, spec, nil)
}

// Resume registers a new session restored from a snapshot previously
// saved in the store (for example by a prior process before shutdown).
// The snapshot's history is replayed against a relation rebuilt from
// spec.Source, which must describe the same data. The new session gets
// a new id, so it may land on a different shard than the snapshot's
// original session — shard homes follow ids, not snapshots.
func (m *Manager) Resume(ctx context.Context, snapshotID string, spec Spec) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	// The snapshot load retries on the shard that owns the SNAPSHOT id,
	// so its failure accounting lands where the id routes.
	loader := m.shardFor(snapshotID)
	var snap *persist.Snapshot
	err := loader.storeRetry(ctx, "loading snapshot "+snapshotID, func(ctx context.Context) error {
		var gerr error
		snap, gerr = m.store.Get(ctx, snapshotID)
		return gerr
	})
	if err != nil {
		return Info{}, err
	}
	return m.open(ctx, spec, snap)
}

// open builds a new session — fresh, or resumed from snap — mints its
// id and installs it on its home shard.
func (m *Manager) open(ctx context.Context, spec Spec, snap *persist.Snapshot) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	e, err := newEntry(spec, snap, persist.AppenderOf(m.store) != nil, m.mintID)
	if err != nil {
		return Info{}, err
	}
	sh := m.shardFor(e.id)
	if err := sh.install(ctx, e); err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	if e.wal != nil {
		// WAL-backed sessions checkpoint a genesis snapshot immediately,
		// so every later round needs only an O(space) append, never a
		// snapshot. A resumed session needs one too: the snapshot it was
		// loaded from lives under the snapshot's id, not the new one. A
		// failed genesis degrades the session but does not fail the
		// creation; its rounds pile up in the recorder until a snapshot
		// lands.
		_ = sh.checkpointLocked(ctx, e)
	}
	return sh.infoOf(e), nil
}

// lock resolves id to its home shard and returns that shard with the
// session's entry locked, transparently unparking an evicted session.
// The caller must unlock e.mu. Every per-session operation starts here.
func (m *Manager) lock(ctx context.Context, id string) (sh *shard, e *entry, err error) {
	sh = m.shardFor(id)
	e, err = sh.acquire(ctx, id, false)
	return sh, e, err
}

// Get returns a session's state. A parked session is reported from its
// parked metadata without resuming it.
func (m *Manager) Get(ctx context.Context, id string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	if info, ok := m.shardFor(id).parkedInfo(id); ok {
		return info, nil
	}
	sh, e, err := m.lock(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	return sh.infoOf(e), nil
}

// List reports every session across all shards, live and parked,
// ordered by id.
func (m *Manager) List(ctx context.Context) ([]Info, error) {
	var out []Info
	for _, sh := range m.shards {
		infos, err := sh.List(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, infos...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// renderPairs materializes pair views with both tuples, so a client
// needs no separate data fetch to show the annotator the rows.
func renderPairs(rel *dataset.Relation, pairs []dataset.Pair) []PairView {
	out := make([]PairView, len(pairs))
	for i, p := range pairs {
		out[i] = PairView{
			A: p.A, B: p.B,
			ATuple: append([]string(nil), rel.Row(p.A)...),
			BTuple: append([]string(nil), rel.Row(p.B)...),
		}
	}
	return out
}

// Next presents the session's next round of pairs.
func (m *Manager) Next(ctx context.Context, id string) ([]PairView, error) {
	sh, e, err := m.lock(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	pairs, err := e.sess.NextContext(ctx)
	if err != nil {
		return nil, err
	}
	sh.notifyStreams(id)
	return renderPairs(e.sess.Relation(), pairs), nil
}

// UncheckedRound disables Submit's round-index idempotency check — the
// pre-v1 contract for callers that track no round counter.
const UncheckedRound = -1

// labelsDigest fingerprints the evidence a set of labelings carries:
// the non-abstained (pair, marked) assertions, order-independent.
// Abstentions are excluded because they carry no evidence — a replayed
// request that spells out its abstentions and one that omits them are
// the same submission. Two slices are accepted so a recorded round's
// labels and revisions digest together without concatenating.
func labelsDigest(a, b []belief.Labeling) uint64 {
	type mark struct {
		a, b   int
		marked uint64
	}
	marks := make([]mark, 0, len(a)+len(b))
	for _, ls := range [2][]belief.Labeling{a, b} {
		for _, l := range ls {
			if l.Abstained {
				continue
			}
			marks = append(marks, mark{l.Pair.A, l.Pair.B, uint64(l.Marked)})
		}
	}
	sort.Slice(marks, func(i, j int) bool {
		if marks[i].a != marks[j].a {
			return marks[i].a < marks[j].a
		}
		if marks[i].b != marks[j].b {
			return marks[i].b < marks[j].b
		}
		return marks[i].marked < marks[j].marked
	})
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(marks)))
	for _, mk := range marks {
		mix(uint64(mk.a))
		mix(uint64(mk.b))
		mix(mk.marked)
	}
	return h
}

// Submit consumes the pending round's annotations. round makes the
// call idempotent (pass UncheckedRound to opt out): it must equal the
// session's current round index; a request naming an already-applied
// round succeeds without re-applying when its labels are an identical
// evidence replay of that round, and fails with ErrRoundMismatch
// otherwise — the contract that makes a retrying client safe.
func (m *Manager) Submit(ctx context.Context, id string, round int, labeled []belief.Labeling) (Info, error) {
	sh, e, err := m.lock(ctx, id)
	if err != nil {
		return Info{}, err
	}
	defer e.mu.Unlock()
	cur := e.sess.Rounds()
	if round != UncheckedRound && round != cur {
		if round > cur {
			return Info{}, fmt.Errorf("%w: round %d is ahead of the current round %d", ErrRoundMismatch, round, cur)
		}
		if err := replayedLocked(e, round, labeled); err != nil {
			return Info{}, err
		}
		return sh.infoOf(e), nil
	}
	if e.sess.PendingCount() == 0 {
		return Info{}, fmt.Errorf("%w; call Next first", game.ErrNoRoundPending)
	}
	if _, err := sh.applyLocked(ctx, e, []poolItem{{round: cur, labeled: labeled}}); err != nil {
		return Info{}, err
	}
	return sh.infoOf(e), nil
}

// TopBelief returns the learner's k leading hypotheses with 90%
// credible intervals.
func (m *Manager) TopBelief(ctx context.Context, id string, k int) ([]HypothesisView, error) {
	_, e, err := m.lock(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if k <= 0 {
		k = 10
	}
	b := e.sess.Belief()
	names := e.sess.Relation().Schema().Names()
	var out []HypothesisView
	for _, i := range b.TopK(k) {
		lo, hi := b.CredibleInterval(i, 0.9)
		out = append(out, HypothesisView{
			FD:         b.Space().FD(i).Render(names),
			Confidence: b.Confidence(i),
			CILow:      lo,
			CIHigh:     hi,
		})
	}
	return out, nil
}

// Repairs derives minority-to-plurality cell repairs from the FDs the
// learner currently believes at confidence at least tau (default 0.5).
func (m *Manager) Repairs(ctx context.Context, id string, tau float64) ([]RepairView, error) {
	_, e, err := m.lock(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	if tau <= 0 {
		tau = 0.5
	}
	b := e.sess.Belief()
	var believed []repair.BelievedFD
	for _, f := range b.BelievedFDs(tau) {
		i, ok := b.Space().Index(f)
		if !ok {
			continue
		}
		believed = append(believed, repair.BelievedFD{FD: f, Confidence: b.Confidence(i)})
	}
	rel := e.sess.Relation()
	suggestions, err := repair.Suggest(rel, believed, repair.Config{})
	if err != nil {
		return nil, err
	}
	names := rel.Schema().Names()
	out := make([]RepairView, len(suggestions))
	for i, s := range suggestions {
		out[i] = RepairView{
			Row:        s.Row,
			Attr:       names[s.Attr],
			Old:        s.Old,
			New:        s.New,
			Confidence: s.Confidence,
			Source:     s.Source.Render(names),
		}
	}
	return out, nil
}

// Snapshot checkpoints the session into the store under its own id and
// returns that id. The session stays live; a checkpoint that lands
// heals a degraded session, as its state is durable again. A session
// with a presented round cannot be snapshotted until it is submitted.
func (m *Manager) Snapshot(ctx context.Context, id string) (string, error) {
	sh, e, err := m.lock(ctx, id)
	if err != nil {
		return "", err
	}
	defer e.mu.Unlock()
	if e.sess.PendingCount() > 0 {
		return "", fmt.Errorf("cannot snapshot: %w", game.ErrRoundPending)
	}
	if err := sh.checkpointLocked(ctx, e); err != nil {
		return "", err
	}
	return e.id, nil
}

// Evict checkpoints the session and parks it, freeing its memory. The
// next access transparently resumes it from the store.
func (m *Manager) Evict(ctx context.Context, id string) error {
	sh, e, err := m.lock(ctx, id)
	if err != nil {
		return err
	}
	return sh.evict(ctx, e) // releases the lock
}

// Rounds returns the session's per-round measurement series, one entry
// per submitted round in order. Sessions created with eval include the
// held-out detection score per round.
func (m *Manager) Rounds(ctx context.Context, id string) ([]RoundView, error) {
	_, e, err := m.lock(ctx, id)
	if err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	return append([]RoundView(nil), e.stats.rounds...), nil
}

// Sweep parks every session idle for at least the manager's IdleTTL,
// fanning one sweeper per shard so shards park through the store
// concurrently — store latency overlaps instead of serializing, which
// is where sharded sweep throughput comes from. It returns the parked
// session ids across all shards, sorted. Call it periodically
// (cmd/etserve runs it on a ticker) or directly in tests. A failed
// eviction leaves that session live and degraded but does not stop its
// shard's sweep; all failures are joined into the returned error.
func (m *Manager) Sweep(ctx context.Context) ([]string, error) {
	perShard := make([][]string, len(m.shards))
	err := m.eachShard(func(sh *shard) error {
		var err error
		perShard[sh.id], err = sh.Sweep(ctx)
		return err
	})
	var swept []string
	for _, ids := range perShard {
		swept = append(swept, ids...)
	}
	sort.Strings(swept)
	return swept, err
}

// eachShard runs fn on every shard concurrently, one goroutine per
// shard, and joins their errors once all have returned.
func (m *Manager) eachShard(fn func(sh *shard) error) error {
	errs := make([]error, len(m.shards))
	var wg sync.WaitGroup
	for i, sh := range m.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Counts reports how many sessions are live and parked across all
// shards.
func (m *Manager) Counts() (live, parked int) {
	for _, sh := range m.shards {
		l, p := sh.Counts()
		live += l
		parked += p
	}
	return live, parked
}

// Shutdown drains the manager: new requests fail with ErrShuttingDown,
// every labelpool is flushed (queued submissions that earned a ticket
// are applied, not dropped), and every live session is checkpointed
// into the store. Shards drain concurrently, each blocking on its own
// in-flight per-session work, so once Shutdown returns no submitted
// round is lost. One session's checkpoint failure does not abandon the
// rest — every session gets its full retry budget and all failures are
// joined into the returned error; sessions whose checkpoint failed
// stay resident and degraded, so a caller can fix the store and call
// Shutdown again. Safe to call more than once.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	m.mu.Unlock()
	// Every shard must observe its draining flag before its pools flush
	// (the enqueue path re-checks the flag under the pool lock), so flip
	// all flags before any shard starts draining.
	for _, sh := range m.shards {
		sh.setDraining()
	}
	if first {
		close(m.drainSignal) // wake attached streams so they close promptly
	}
	return m.eachShard(func(sh *shard) error { return sh.shutdown(ctx) })
}
