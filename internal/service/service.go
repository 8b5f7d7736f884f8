// Package service is the serving layer of the repository: a discovery
// job manager that turns the library into a long-running, multi-tenant
// system. Clients submit jobs naming a target store (an in-process
// hidden database or a remote skyserve endpoint dialed through
// web.Client), an algorithm, a query budget, parallelism and cache
// settings; the manager runs them on the shared execution substrate
// (bounded worker pools, one shared memoizing query cache), gates them
// behind a max-concurrent-jobs FIFO queue, streams live progress
// (queries issued, skyline size, budget remaining), and checkpoints
// resumable jobs through core.Session into a file-backed snapshot store
// so a killed daemon resumes every in-flight job on restart without
// repeating a single counted query.
//
// cmd/skylined wraps a Manager in the HTTP API of NewHandler; Client is
// the matching Go client.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/core"
	"hiddensky/internal/engine"
	"hiddensky/internal/federate"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/qcache"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
	"hiddensky/internal/web"
)

// Errors surfaced by the manager.
var (
	// ErrUnknownJob: no job with that id.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrUnknownStore: the spec names a store the manager does not serve.
	ErrUnknownStore = errors.New("service: unknown store")
	// ErrNotFinished: the job has no final result yet.
	ErrNotFinished = errors.New("service: job not finished")
	// ErrClosed: the manager is shutting down.
	ErrClosed = errors.New("service: manager closed")
)

// Config tunes a Manager.
type Config struct {
	// MaxConcurrent bounds how many jobs run discovery at once; further
	// jobs wait in FIFO order. <= 0 means the default of 2.
	MaxConcurrent int
	// SnapshotDir, when non-empty, enables the file-backed snapshot
	// store: every job is persisted there (specs at submit, session
	// checkpoints while running, final results) and Recover re-enqueues
	// whatever a previous process left unfinished.
	SnapshotDir string
	// CacheSize, when non-zero, builds the manager's shared memoizing
	// query cache (entries; < 0 = unbounded). Jobs opt in per-spec.
	CacheSize int
	// CheckpointEvery is the default number of queries between snapshot
	// writes for resumable jobs (<= 0: after every query).
	CheckpointEvery int
	// RetryDelay is how long a resumable job parks before re-running
	// after an upstream rate limit or transient outage (as opposed to
	// its own Budget, which ends the job). <= 0 means the default of
	// 15s. Consecutive retries without progress double the delay up to
	// MaxRetryDelay; a job that makes no progress across several
	// consecutive retries gives up.
	RetryDelay time.Duration
	// MaxRetryDelay caps the escalating park-and-retry delay
	// (<= 0: 8x RetryDelay).
	MaxRetryDelay time.Duration
	// BreakerThreshold is how many consecutive upstream-failure job
	// endings (rate limited or transiently unavailable) a store absorbs
	// before its circuit opens: further runs against the store park
	// without spending a single upstream query until the cooldown
	// elapses, then probe half-open. 0 means the default of 3; negative
	// disables the per-store breakers.
	BreakerThreshold int
	// BreakerCooldown is the base open duration of a store circuit
	// (<= 0: 30s). Consecutive opens double it, up to 32x.
	BreakerCooldown time.Duration
	// Logger receives the manager's structured job-lifecycle log
	// (submit, start, park, terminal states, index publications), every
	// line carrying the job id and trace id. nil: logging is off.
	Logger *slog.Logger
	// SpanBuffer bounds the per-process span ring the job traces are
	// kept in (spans, rounded up to a power of two; <= 0 picks
	// obs.DefaultSpanCapacity). Once it wraps, the oldest spans are
	// overwritten and GET /v1/jobs/{id}/trace marks the trace
	// truncated.
	SpanBuffer int
	// SampleInterval is the time-series sampler's tick (<= 0:
	// obs.DefaultSampleInterval). Every registry series is ringed at
	// this cadence for GET /v1/history and the health rollup's
	// windowed rates.
	SampleInterval time.Duration
	// SampleRetention bounds how many samples each series keeps (<= 0:
	// obs.DefaultSampleRetention).
	SampleRetention int
	// Health tunes the rollup's degradation thresholds.
	Health HealthThresholds
	// BatchWindow, when > 0, coalesces concurrent single-vector
	// /v1/answer/topk calls against the same store: a call parks for up
	// to this long while others gather, then the window is answered in
	// one fused TopKBatch column sweep. ~200µs trades negligible added
	// latency for an amortized sweep under concurrent load. Zero
	// disables coalescing (every call sweeps alone, as before).
	BatchWindow time.Duration
	// BatchMax caps a coalescing window's batch: the BatchMax-th caller
	// flushes immediately instead of waiting out the window (<= 0:
	// DefaultBatchMax).
	BatchMax int
}

// HealthThresholds configures the manager's health rollup: a rate
// check degrades the daemon while its 1-minute windowed rate exceeds
// the threshold (events per second). Zero picks the default; negative
// disables the check.
type HealthThresholds struct {
	// MaxFailureRate bounds failed jobs per second (default 0.1).
	MaxFailureRate float64
	// MaxRateLimitedRate bounds upstream 429s per second across all
	// stores (default 1.0).
	MaxRateLimitedRate float64
	// MaxEvictionRate bounds shared-cache evictions per second
	// (default 100) — sustained eviction churn means the cache is
	// thrashing, not caching.
	MaxEvictionRate float64
}

// Default health thresholds (events/second over the trailing minute).
const (
	DefaultMaxFailureRate     = 0.1
	DefaultMaxRateLimitedRate = 1.0
	DefaultMaxEvictionRate    = 100.0
)

// threshold resolves the zero/negative convention.
func threshold(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0 // obs: <= 0 disables the check
	}
	return v
}

// JobSpec describes one discovery job. It is the JSON body of
// POST /v1/jobs.
type JobSpec struct {
	// Store names the target store (single-store discovery).
	Store string `json:"store,omitempty"`
	// Stores names several stores for a federated fleet job: each is
	// discovered and the skylines are merged into one global Pareto
	// frontier. Mutually exclusive with Store; fleet jobs are not
	// resumable.
	Stores []string `json:"stores,omitempty"`
	// Algo picks the algorithm: "auto" (default, dispatch on the
	// interface mixture), "sq", "rq", "pq" or "mq". Resumable jobs
	// always run the checkpointable SQ session walk.
	Algo string `json:"algo,omitempty"`
	// Budget bounds the job's total counted queries (0 = unlimited).
	// For resumable jobs it spans restarts; for fleet jobs it is the
	// fleet-wide upstream-query budget.
	Budget int `json:"budget,omitempty"`
	// Parallelism is the run's worker bound (single-store jobs) or the
	// number of concurrently discovered stores (fleet jobs).
	Parallelism int `json:"parallelism,omitempty"`
	// UseCache routes the job's queries through the manager's shared
	// memoizing cache (no-op when the manager has none).
	UseCache bool `json:"use_cache,omitempty"`
	// Resumable runs the job as a checkpointed core.Session: its state
	// is written to the snapshot store every CheckpointEvery queries, so
	// a killed daemon resumes it with exact query accounting. Requires
	// an interface whose attributes all support one-ended ranges (SQ or
	// RQ capabilities).
	Resumable bool `json:"resumable,omitempty"`
	// CheckpointEvery overrides the manager's checkpoint interval for
	// this job (<= 0: manager default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Band, when > 0, discovers the K-skyband instead of the skyline
	// (§7.2): the job's answer index then serves exact top-k for any
	// monotone user ranking up to k = Band. Band jobs are single-store
	// and not resumable; Algo picks the band variant ("auto" dispatches
	// on the interface mixture).
	Band int `json:"band,omitempty"`
	// Where is a conjunctive filter ("A0<500,A2>=3"; see query.Parse):
	// the job discovers the skyline (or K-skyband) of the matching
	// subset only (§2.1). It composes with Algo, Band and Resumable
	// (resubmit a resumable job with the same filter), and fleet jobs
	// apply it to every store. Each predicate's operator must be
	// supported by the target interface; violations are rejected at
	// submit. Filtered jobs do not feed the store's materialized answer
	// index, which serves whole-store rankings.
	Where string `json:"where,omitempty"`
}

// request compiles the spec's discovery fields into the planner's
// input. The session (for resumable jobs) is attached by the executor.
func (spec JobSpec) request() (core.Request, error) {
	filter, err := query.Parse(spec.Where)
	if err != nil {
		return core.Request{}, fmt.Errorf("service: bad where filter: %w", err)
	}
	algo, err := core.ParseAlgo(spec.Algo)
	if err != nil {
		return core.Request{}, fmt.Errorf("service: %w", err)
	}
	return core.Request{Algo: algo, Band: spec.Band, Filter: filter, Resumable: spec.Resumable}, nil
}

// planSummary renders the spec's discovery plan for log lines: the
// algorithm and every option that shapes the run.
func (spec JobSpec) planSummary() string {
	var b strings.Builder
	algo := spec.Algo
	if algo == "" {
		algo = "auto"
	}
	fmt.Fprintf(&b, "algo=%s", algo)
	if spec.Band > 0 {
		fmt.Fprintf(&b, " band=%d", spec.Band)
	}
	if spec.Where != "" {
		fmt.Fprintf(&b, " where=%q", spec.Where)
	}
	if spec.Budget > 0 {
		fmt.Fprintf(&b, " budget=%d", spec.Budget)
	}
	if spec.Parallelism > 1 {
		fmt.Fprintf(&b, " parallelism=%d", spec.Parallelism)
	}
	if spec.Resumable {
		b.WriteString(" resumable")
	}
	if spec.UseCache {
		b.WriteString(" cached")
	}
	return b.String()
}

// storeLabel names the job's target for log lines (fleet jobs join
// their store list).
func (spec JobSpec) storeLabel() string {
	if len(spec.Stores) > 0 {
		return strings.Join(spec.Stores, ",")
	}
	return spec.Store
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: queued -> running -> done | failed | cancelled. A
// manager shutdown moves running jobs back to queued in the snapshot
// store, from where Recover re-enqueues them.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is a job's externally visible state, as served by the HTTP
// API and streamed over SSE.
type JobStatus struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// TraceID is the job's correlation id, assigned at submit and
	// carried through every lifecycle log line, SSE progress event and
	// GET response — grep the daemon log for it to follow one job
	// submit → plan → discovery → index publish.
	TraceID string `json:"trace_id,omitempty"`
	// Phase is the job's current lifecycle phase (submit → start →
	// discover → publish → done / failed / cancelled, or queued while
	// parked). It rides every SSE event, so a stream consumer sees the
	// transitions in order; the same label stamps the spans recorded
	// during the phase.
	Phase string `json:"phase,omitempty"`
	// Queries counts the job's queries so far (cumulative across
	// restarts for resumable jobs; upstream queries for fleet jobs
	// until the final, algorithm-counted total replaces it).
	Queries int `json:"queries"`
	// Skyline is the current candidate-skyline (or fleet frontier) size.
	Skyline int `json:"skyline"`
	// BudgetRemaining is Spec.Budget minus Queries, or -1 when the job
	// is unbudgeted.
	BudgetRemaining int `json:"budget_remaining"`
	// Complete is true once the skyline is provably exact and complete.
	Complete bool `json:"complete"`
	// Restarts counts how many times the job was recovered from the
	// snapshot store.
	Restarts int    `json:"restarts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Tuples holds the final skyline once the job is terminal.
	Tuples [][]int `json:"tuples,omitempty"`

	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// clone returns a copy safe to hand out (tuples are never mutated after
// discovery, so sharing the slices is fine) with derived fields filled.
func (st JobStatus) clone() JobStatus {
	if st.Spec.Budget > 0 {
		st.BudgetRemaining = st.Spec.Budget - st.Queries
		if st.BudgetRemaining < 0 {
			st.BudgetRemaining = 0
		}
	} else {
		st.BudgetRemaining = -1
	}
	return st
}

// job is the manager-internal job record.
type job struct {
	mu         sync.Mutex
	status     JobStatus
	session    *core.Session // resumable jobs only
	cancel     context.CancelFunc
	cancelled  bool // Cancel was requested by a client
	parked     bool // manager shutdown: leave the job resumable
	retryMark  int  // query count at the last rate-limit park
	noProgress int  // consecutive rate-limit retries with no new queries
	subs       map[chan JobStatus]struct{}
	tracer     *obs.Tracer // created on first run; reused across retries
}

// set applies f under the job lock and notifies watchers. The fan-out
// happens inside the same critical section, so concurrent updates reach
// subscribers in mutation order (a live counter never appears to move
// backwards on the stream).
func (j *job) set(f func(*JobStatus)) {
	j.mu.Lock()
	f(&j.status)
	j.notifyLocked(j.status.clone())
	j.mu.Unlock()
}

// snapshotStatus returns the current status copy.
func (j *job) snapshotStatus() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.clone()
}

// notify fans st out to the subscribers (dropping updates a slow
// subscriber has no room for) and, when st is terminal, closes every
// subscription: a closed watch channel means "read the final status
// with Get".
func (j *job) notify(st JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.notifyLocked(st)
}

// notifyLocked is notify for callers already holding j.mu.
func (j *job) notifyLocked(st JobStatus) {
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
	if st.State.Terminal() {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// Manager runs discovery jobs against named stores.
type Manager struct {
	cfg     Config
	cache   *qcache.Cache
	snaps   *snapshotStore // nil: no persistence
	reg     *obs.Registry
	met     *managerMetrics
	log     *slog.Logger
	spans   *obs.SpanStore    // per-job span trees, bounded ring
	sampler *obs.Sampler      // time-series rings over reg
	health  *obs.HealthRollup // ready/degraded/unready rollup

	mu       sync.Mutex
	stores   map[string]core.Interface
	breakers map[string]*breaker     // per-store circuit (nil entries: disabled)
	answers  map[string]*answerEntry // per-store hot-swapped answer index
	jobs     map[string]*job
	order    []string // listing order (ids, ascending)
	queue    []string // FIFO of queued job ids
	running  int
	seq      int
	closed   bool
	wg       sync.WaitGroup
}

// NewManager builds a manager (creating the snapshot directory when
// configured). Register stores with AddStore, then call Recover to
// re-enqueue what a previous process left behind.
func NewManager(cfg Config) (*Manager, error) {
	m := &Manager{
		cfg:      cfg,
		stores:   map[string]core.Interface{},
		breakers: map[string]*breaker{},
		answers:  map[string]*answerEntry{},
		jobs:     map[string]*job{},
		log:      cfg.Logger,
	}
	if m.log == nil {
		m.log = obs.Nop()
	}
	m.reg = obs.NewRegistry()
	m.met = newManagerMetrics(m.reg)
	m.spans = obs.NewSpanStore(cfg.SpanBuffer)
	if cfg.CacheSize != 0 {
		m.cache = qcache.New(qcache.Config{MaxEntries: cfg.CacheSize})
	}
	m.registerManagerFuncs()
	obs.RegisterRuntime(m.reg)
	m.sampler = obs.NewSampler(m.reg, obs.SamplerConfig{
		Interval:  cfg.SampleInterval,
		Retention: cfg.SampleRetention,
	})
	m.registerHealthChecks()
	if cfg.SnapshotDir != "" {
		s, err := newSnapshotStore(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
		m.snaps = s
	} else {
		// Without a snapshot store there is nothing to recover: the
		// readiness gate opens immediately. With one, it stays closed
		// until Recover has replayed the snapshots and rebuilt the
		// answer indexes.
		m.health.SetReady()
	}
	m.sampler.Start()
	return m, nil
}

// CacheStats returns the shared cache's counters (zero when the manager
// has no cache).
func (m *Manager) CacheStats() qcache.Stats {
	if m.cache == nil {
		return qcache.Stats{}
	}
	return m.cache.Stats()
}

func (m *Manager) maxConcurrent() int {
	if m.cfg.MaxConcurrent > 0 {
		return m.cfg.MaxConcurrent
	}
	return 2
}

// AddStore registers a named store. Remote stores are *web.Client
// values: the manager hands each job a context-bound view so cancelling
// the job stops its upstream requests.
func (m *Manager) AddStore(name string, db core.Interface) error {
	if name == "" || db == nil {
		return fmt.Errorf("service: store needs a name and a database")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.stores[name]; dup {
		return fmt.Errorf("service: store %q already registered", name)
	}
	m.stores[name] = db
	if th := m.breakerThreshold(); th > 0 {
		b := newBreaker(th, m.breakerCooldown())
		m.breakers[name] = b
		m.reg.GaugeFunc(`circuit_state{store="`+name+`"}`,
			"store circuit state (0 closed, 1 half-open, 2 open)",
			func() float64 { return float64(b.stateAt(time.Now())) })
	}
	e := &answerEntry{}
	if m.cfg.BatchWindow > 0 {
		e.co = newTopkCoalescer(m)
	}
	m.answers[name] = e
	m.instrumentStore(name, db)
	return nil
}

func (m *Manager) breakerThreshold() int {
	switch {
	case m.cfg.BreakerThreshold > 0:
		return m.cfg.BreakerThreshold
	case m.cfg.BreakerThreshold < 0:
		return 0 // disabled
	}
	return 3
}

func (m *Manager) breakerCooldown() time.Duration {
	if m.cfg.BreakerCooldown > 0 {
		return m.cfg.BreakerCooldown
	}
	return 30 * time.Second
}

// storeBreaker returns the store's circuit (nil when breakers are
// disabled or the job is a fleet job, which aggregates many stores).
func (m *Manager) storeBreaker(store string) *breaker {
	if store == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.breakers[store]
}

// StoreNames lists the registered stores, sorted.
func (m *Manager) StoreNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.stores))
	for n := range m.stores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (m *Manager) lookupStore(name string) (core.Interface, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	db, ok := m.stores[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStore, name)
	}
	return db, nil
}

// Submit validates and enqueues a job, starting it immediately when a
// concurrency slot is free.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	if err := m.validate(&spec); err != nil {
		return JobStatus{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j%06d", m.seq)
	j := &job{status: JobStatus{
		ID:          id,
		Spec:        spec,
		State:       StateQueued,
		TraceID:     obs.NewTraceID(),
		Phase:       "submit",
		SubmittedAt: time.Now().UTC(),
	}}
	m.jobs[id] = j
	m.order = append(m.order, id)
	st := j.status.clone()
	m.mu.Unlock()
	m.met.jobsSubmitted.Inc()
	m.log.Info("job submitted",
		"job_id", id, "trace_id", st.TraceID,
		"store", spec.storeLabel(), "plan", spec.planSummary())
	// Persist outside the manager lock (snapshot writes hit the disk) but
	// before enqueueing: the run goroutine's snapshots must come later.
	m.persist(j)
	m.mu.Lock()
	m.queue = append(m.queue, id)
	m.schedule()
	m.mu.Unlock()
	return st, nil
}

func (m *Manager) validate(spec *JobSpec) error {
	if (spec.Store == "") == (len(spec.Stores) == 0) {
		return fmt.Errorf("service: a job names exactly one of store or stores")
	}
	if spec.Budget < 0 || spec.Parallelism < 0 || spec.Band < 0 {
		return fmt.Errorf("service: budget, parallelism and band must be >= 0")
	}
	if len(spec.Stores) > 0 {
		if spec.Resumable {
			return fmt.Errorf("service: fleet jobs are not resumable")
		}
		if spec.Band > 0 {
			return fmt.Errorf("service: band jobs target a single store")
		}
	}
	req, err := spec.request()
	if err != nil {
		return err
	}
	names := spec.Stores
	if spec.Store != "" {
		names = []string{spec.Store}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range names {
		db, ok := m.stores[n]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownStore, n)
		}
		// Compile (and discard) the plan at submit time: an algorithm /
		// band / filter combination the store's interface cannot satisfy
		// is a client error now, not a failed job later.
		if _, err := core.Plan(db, req); err != nil {
			return fmt.Errorf("service: store %q: %w", n, err)
		}
	}
	return nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (JobStatus, bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	return j.snapshotStatus(), true
}

// List returns every known job, in submission (id) order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshotStatus()
	}
	return out
}

// Result returns a terminal job's skyline tuples.
func (m *Manager) Result(id string) ([][]int, error) {
	st, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if !st.State.Terminal() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, st.State)
	}
	return st.Tuples, nil
}

// Cancel aborts a job. A queued job is cancelled immediately; a running
// job stops issuing upstream queries promptly (its context is
// cancelled) and finishes with its partial skyline. Cancelling a
// terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	st := j.status.State
	var cancel context.CancelFunc
	switch st {
	case StateQueued:
		j.cancelled = true
		j.status.State = StateCancelled
		j.status.Error = "cancelled while queued"
		j.status.FinishedAt = time.Now().UTC()
	case StateRunning:
		j.cancelled = true
		cancel = j.cancel
	}
	out := j.status.clone()
	j.mu.Unlock()
	if st == StateQueued {
		j.notify(out)
		m.persist(j)
	}
	if cancel != nil {
		cancel()
	}
	return out, nil
}

// Watch subscribes to a job's status updates. The returned channel
// receives the current status immediately, then every change; it is
// closed when the job reaches a terminal state (fetch the final status
// with Get). Call stop to unsubscribe early.
func (m *Manager) Watch(id string) (<-chan JobStatus, func(), error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	ch := make(chan JobStatus, 16)
	j.mu.Lock()
	st := j.status.clone()
	if st.State.Terminal() {
		j.mu.Unlock()
		ch <- st
		close(ch)
		return ch, func() {}, nil
	}
	if j.subs == nil {
		j.subs = map[chan JobStatus]struct{}{}
	}
	j.subs[ch] = struct{}{}
	ch <- st // under j.mu: the empty 16-slot buffer cannot block, and
	// notify (which closes ch on a terminal update) is serialized behind
	// the same lock, so the send cannot race the close.
	j.mu.Unlock()
	stop := func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, stop, nil
}

// schedule starts queued jobs while concurrency slots are free. Callers
// hold m.mu.
func (m *Manager) schedule() {
	for !m.closed && m.running < m.maxConcurrent() && len(m.queue) > 0 {
		id := m.queue[0]
		m.queue = m.queue[1:]
		j := m.jobs[id]
		if j == nil || j.snapshotStatus().State != StateQueued {
			continue // cancelled while waiting
		}
		m.running++
		m.wg.Add(1)
		go m.run(j)
	}
}

// run executes one job to a terminal state (or parks it resumable when
// the manager shuts down mid-run).
func (m *Manager) run(j *job) {
	defer m.wg.Done()
	if m.gateCircuit(j) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	j.mu.Lock()
	// Bail out if the job was cancelled in the gap, or the manager began
	// shutting down between schedule() and here (Close parks every
	// non-terminal job, including ones whose goroutine has not started).
	if j.status.State != StateQueued || j.parked {
		j.mu.Unlock()
		m.release()
		return
	}
	j.cancel = cancel
	j.status.State = StateRunning
	j.status.Error = "" // drop any retry note from a previous attempt
	j.status.StartedAt = time.Now().UTC()
	j.status.Phase = "start"
	if j.tracer == nil {
		// One tracer per job, created on the first attempt and reused
		// across rate-limit retries, so the whole multi-attempt history
		// lives under one trace id.
		j.tracer = m.spans.Tracer(j.status.TraceID)
	}
	tr := j.tracer
	st := j.status.clone()
	j.mu.Unlock()
	tr.SetPhase("start")
	j.notify(st)
	m.persist(j)
	m.log.Info("job started",
		"job_id", st.ID, "trace_id", st.TraceID,
		"store", st.Spec.storeLabel(), "plan", st.Spec.planSummary())

	// The root span covers one attempt end to end (a parked-and-retried
	// job records one root per attempt under the same trace).
	root := tr.Start("job", 0)
	root.SetStr("store", st.Spec.storeLabel())
	oc := m.execute(ctx, j, tr, root.ID())
	m.finish(j, oc, tr, root.ID())
	final := j.snapshotStatus()
	root.SetStr("state", string(final.State))
	root.SetInt("queries", int64(final.Queries))
	root.SetInt("skyline", int64(final.Skyline))
	root.End()
	m.release()
}

// gateCircuit parks a queued job while its store's circuit is open:
// the job stays queued without spending a single upstream query and is
// re-queued for when the cooldown ends. Returns true when the job was
// parked (the concurrency slot has been released).
func (m *Manager) gateCircuit(j *job) bool {
	st := j.snapshotStatus()
	if st.State != StateQueued {
		return false
	}
	b := m.storeBreaker(st.Spec.Store)
	if b == nil {
		return false
	}
	ok, wait := b.allow(time.Now())
	if ok {
		return false
	}
	j.set(func(s *JobStatus) { s.Error = "upstream circuit open; parked" })
	m.met.jobsParkedCircuit.Inc()
	m.log.Warn("job parked (store circuit open)",
		"job_id", st.ID, "trace_id", st.TraceID, "store", st.Spec.Store, "wait", wait)
	m.requeueAfter(st.ID, wait)
	m.release()
	return true
}

// setPhase publishes a lifecycle phase: new spans get stamped with it,
// and the job status (hence every SSE event) carries it.
func (m *Manager) setPhase(j *job, tr *obs.Tracer, phase string) {
	tr.SetPhase(phase)
	j.set(func(st *JobStatus) { st.Phase = phase })
}

// release returns a concurrency slot and pulls the next queued job.
func (m *Manager) release() {
	m.mu.Lock()
	m.running--
	m.schedule()
	m.mu.Unlock()
}

// outcome is what a job execution produced.
type outcome struct {
	tuples   [][]int
	queries  int
	complete bool
	// band is the skyband level of tuples (0 or 1: a plain skyline).
	band int
	err  error
}

// execute runs the job's discovery. While a job is running, only its
// own goroutine persists it (via the session checkpoint hook), so the
// serialized session is never read while being mutated. All algorithm
// dispatch lives in the core planner: the manager only compiles the
// spec into a core.Request and hands it to core.Run.
func (m *Manager) execute(ctx context.Context, j *job, tr *obs.Tracer, root uint64) outcome {
	spec := j.snapshotStatus().Spec
	m.setPhase(j, tr, "discover")
	if len(spec.Stores) > 0 {
		return m.executeFleet(ctx, j, spec, tr, root)
	}
	registered, err := m.lookupStore(spec.Store)
	if err != nil {
		return outcome{err: err}
	}
	db := registered
	if wc, ok := db.(*web.Client); ok {
		db = wc.WithContext(ctx).WithTrace(tr, root)
	}
	if spec.UseCache && m.cache != nil {
		// Key the shared cache by the registered store, not the per-job
		// context-bound view: every job (and every restart) against the
		// same store hits one warm keyspace. The traced handle shares
		// that keyspace — it only adds span recording.
		db = m.cache.WrapAs(registered, db).WithTracer(tr, root)
	}
	req, err := spec.request()
	if err != nil {
		return outcome{err: err}
	}
	opt := core.Options{Parallelism: spec.Parallelism, Ctx: ctx, PoolMetrics: m.met.pool,
		Tracer: tr, TraceParent: root}
	if req.Resumable {
		return m.executeSession(j, db, spec, req, opt)
	}
	opt.MaxQueries = spec.Budget
	opt.Progress = progressSink(j, 0)
	res, err := core.Run(db, req, opt)
	return outcome{tuples: res.Skyline, queries: res.Queries, complete: res.Complete, band: res.Band, err: err}
}

// executeSession runs (or continues) the job's checkpointed SQ session
// through the planner (req.Session carries the checkpoint into
// core.Run). The manager owns the cross-restart budget arithmetic and
// the persistence hooks; the walk itself is core's.
func (m *Manager) executeSession(j *job, db core.Interface, spec JobSpec, req core.Request, opt core.Options) outcome {
	j.mu.Lock()
	req.Session = j.session
	j.mu.Unlock()
	plan, err := core.Plan(db, req)
	if err != nil {
		return outcome{err: err}
	}
	// The plan owns session construction: a fresh session is rooted at
	// the (possibly filter-shrunk) view's domains and pinned to the
	// job's filter, so a filtered walk never explores the unfiltered
	// box and a recovered checkpoint cannot resume under the wrong
	// filter.
	sess := plan.Session()
	j.mu.Lock()
	j.session = sess
	j.mu.Unlock()

	base := sess.Queries
	if spec.Budget > 0 {
		remaining := spec.Budget - base
		if remaining <= 0 {
			return outcome{tuples: sess.Skyline, queries: base, complete: sess.Done(), err: core.ErrBudget}
		}
		opt.MaxQueries = remaining
	}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = m.cfg.CheckpointEvery
	}
	sess.CheckpointEvery = every
	sess.OnCheckpoint = func(s *core.Session) error {
		j.set(func(st *JobStatus) { st.Queries = s.Queries; st.Skyline = len(s.Skyline) })
		m.persist(j)
		return nil
	}
	defer func() { sess.OnCheckpoint = nil }()
	opt.Progress = progressSink(j, base)
	res, err := plan.Run(opt)
	return outcome{tuples: res.Skyline, queries: res.Queries, complete: res.Complete, err: err}
}

// progressSink folds a run's progress events into the job status.
// Under Parallelism > 1 concurrent workers may deliver events out of
// order, so stale events (a lower query count than already recorded)
// are dropped — the published counter never goes backwards.
func progressSink(j *job, base int) func(core.ProgressEvent) {
	return func(ev core.ProgressEvent) {
		j.set(func(st *JobStatus) {
			if q := base + ev.Queries; q > st.Queries {
				st.Queries = q
				st.Skyline = ev.Skyline
			}
		})
	}
}

// countingDB bumps the job's query counter for every answered upstream
// query of a fleet job.
type countingDB struct {
	core.Interface
	j *job
}

func (c countingDB) Query(q query.Q) (hidden.Result, error) {
	res, err := c.Interface.Query(q)
	if err == nil {
		c.j.set(func(st *JobStatus) { st.Queries++ })
	}
	return res, err
}

// executeFleet runs a federated fleet job: every named store is
// discovered (at most Parallelism at once) under one fleet-wide budget,
// and the skylines merge into the global Pareto frontier.
func (m *Manager) executeFleet(ctx context.Context, j *job, spec JobSpec, tr *obs.Tracer, root uint64) outcome {
	req, err := spec.request()
	if err != nil {
		return outcome{err: err}
	}
	// The layering below mirrors DiscoverFleet's own Cache/GlobalBudget
	// handling (budget gate beneath the cache, so cached hits consume no
	// budget), but is built here so the cache keyspace is the registered
	// store — shared across jobs — instead of a per-job wrapper, and so
	// the counting wrapper sees exactly the queries that reach upstream.
	// The shared gauge tracks live consumption across concurrent fleet
	// jobs: this job's contribution is withdrawn once its run is over.
	budget := engine.NewBudget(spec.Budget).Instrument(m.met.budgetUsed)
	defer func() { m.met.budgetUsed.Add(-int64(budget.Used())) }()
	stores := make([]federate.Store, len(spec.Stores))
	for i, name := range spec.Stores {
		registered, err := m.lookupStore(name)
		if err != nil {
			return outcome{err: err}
		}
		db := registered
		if wc, ok := db.(*web.Client); ok {
			db = wc.WithContext(ctx).WithTrace(tr, root)
		}
		db = countingDB{Interface: db, j: j}
		if spec.Budget > 0 {
			db = engine.Limit(db, budget)
		}
		if spec.UseCache && m.cache != nil {
			db = m.cache.WrapAs(registered, db).WithTracer(tr, root)
		}
		stores[i] = federate.Store{Name: name, DB: db}
	}
	fo := federate.FleetOptions{
		MaxStores: spec.Parallelism,
		Request:   req,
		OnStoreDone: func(i int, st federate.StoreStats) {
			j.set(func(js *JobStatus) { js.Skyline += st.Skyline })
		},
	}
	fres, err := federate.DiscoverFleet(stores, core.Options{Ctx: ctx, PoolMetrics: m.met.pool,
		Tracer: tr, TraceParent: root}, fo)
	if err != nil {
		// Keep the live upstream-query count countingDB accumulated: a
		// hard store failure must not erase what the fleet already spent.
		return outcome{err: err, queries: j.snapshotStatus().Queries}
	}
	tuples := make([][]int, len(fres.Frontier))
	for i, o := range fres.Frontier {
		tuples[i] = o.Tuple
	}
	return outcome{tuples: tuples, queries: fres.Queries, complete: fres.Complete}
}

// maxNoProgressRetries bounds how many consecutive rate-limit retries
// may pass without a single new query before a resumable job gives up
// (the upstream quota is evidently not replenishing).
const maxNoProgressRetries = 5

// finish folds an execution outcome into the job's terminal (or parked)
// state and persists it.
func (m *Manager) finish(j *job, oc outcome, tr *obs.Tracer, root uint64) {
	m.setPhase(j, tr, "publish")
	// Compile the answer index before the job turns terminal and swap it
	// in inside the same critical section that publishes the terminal
	// state: any observer that sees the job done sees its answers live.
	// (The handle is fetched under m.mu first — m.mu is never taken
	// while holding j.mu.)
	var built *answer.Store
	var entry *answerEntry
	var buildDur time.Duration
	if spec := j.snapshotStatus().Spec; oc.err == nil && oc.complete &&
		publishableAnswer(spec, oc.tuples) {
		bandK := oc.band
		if bandK <= 0 {
			bandK = 1
		}
		// Building is best-effort: a failure leaves the previous index
		// serving.
		sp := tr.Start("answer.build", root)
		sp.SetInt("tuples", int64(len(oc.tuples)))
		t0 := time.Now()
		if s, err := answer.Build(oc.tuples, answer.Options{BandK: bandK}); err == nil {
			buildDur = time.Since(t0)
			s.SetMetrics(m.met.answerShared)
			built = s
			m.mu.Lock()
			entry = m.answers[spec.Store]
			m.mu.Unlock()
			sp.End()
		} else {
			sp.Rename("answer.build_failed")
			sp.End()
		}
	}
	j.mu.Lock()
	j.cancel = nil
	st := &j.status
	st.Queries = oc.queries
	st.Skyline = len(oc.tuples)
	st.Complete = oc.err == nil && oc.complete
	st.FinishedAt = time.Now().UTC()
	requeue := false
	var requeueDelay time.Duration
	switch {
	case oc.err == nil && oc.complete:
		st.State = StateDone
		st.Tuples = oc.tuples
	case j.cancelled:
		st.State = StateCancelled
		st.Tuples = oc.tuples
		st.Error = "cancelled"
	case j.parked:
		// Manager shutdown: back to queued so the snapshot store hands
		// the job to the next process. Resumable jobs continue from
		// their checkpoint; others restart from scratch.
		st.State = StateQueued
		st.FinishedAt = time.Time{}
		st.Error = ""
	case m.shouldRetry(j, oc):
		// Upstream quota or outage (not the job's own budget)
		// interrupted a resumable run: the checkpoint must not be
		// orphaned. Park the job and retry once the upstream has had
		// time to recover — the multi-day-quota story, daemon edition.
		// Consecutive no-progress retries back off exponentially.
		requeue = true
		requeueDelay = m.retryDelayFor(j.noProgress)
		st.State = StateQueued
		st.FinishedAt = time.Time{}
		if errors.Is(oc.err, hidden.ErrRateLimited) {
			st.Error = "upstream rate limited; retrying"
		} else {
			st.Error = "upstream unavailable; retrying"
		}
	case oc.err == nil || errors.Is(oc.err, core.ErrBudget):
		// The run ended cleanly but incompletely (a store or the job
		// itself exhausted its budget, or rate-limit retries stopped
		// making progress): the partial skyline is the paper's anytime
		// result, surfaced as done-but-incomplete. A resumable job's
		// session stays in the snapshot, so a resubmitted job could
		// still continue it by hand.
		st.State = StateDone
		st.Tuples = oc.tuples
		switch {
		case oc.err == nil:
		case errors.Is(oc.err, hidden.ErrRateLimited):
			st.Error = "upstream rate limited"
		default:
			st.Error = "query budget exhausted"
		}
	default:
		st.State = StateFailed
		st.Tuples = oc.tuples
		st.Error = oc.err.Error()
	}
	published := false
	if built != nil && entry != nil && st.State == StateDone {
		published = entry.publish(built, st.ID)
	}
	// The terminal phase is published in the same critical section as
	// the terminal state: an SSE consumer sees phase "done" exactly
	// when it sees state done.
	if st.State.Terminal() {
		st.Phase = string(st.State)
	} else {
		st.Phase = "queued" // parked (shutdown) or rate-limit retry
	}
	tr.SetPhase(st.Phase)
	out := j.status.clone()
	j.mu.Unlock()
	j.notify(out)
	m.recordCircuit(out, oc)
	m.persist(j)
	if published {
		m.persistAnswer(out, built)
	}
	m.observeFinish(out, requeue, published, buildDur)
	if requeue {
		m.requeueAfter(out.ID, requeueDelay)
	}
}

// recordCircuit folds a single-store job's ending into the store's
// circuit breaker: upstream failures (rate limited, transiently
// unavailable) count against it, clean endings close it. Jobs the
// client cancelled or the shutdown parked say nothing about the store.
func (m *Manager) recordCircuit(st JobStatus, oc outcome) {
	b := m.storeBreaker(st.Spec.Store)
	if b == nil {
		return
	}
	switch {
	case errors.Is(oc.err, hidden.ErrRateLimited) || errors.Is(oc.err, retry.ErrUnavailable):
		if d := b.onFailure(time.Now()); d > 0 {
			m.met.circuitOpens.Inc()
			m.log.Warn("store circuit opened",
				"job_id", st.ID, "trace_id", st.TraceID, "store", st.Spec.Store,
				"cooldown", d)
		}
	case oc.err == nil || errors.Is(oc.err, core.ErrBudget):
		b.onSuccess()
	}
}

// persistAnswer writes the freshly published index's binary columnar
// snapshot next to the job's JSON snapshot, so the next process
// recovers this store's answers by decoding arenas instead of
// re-running Build. Best-effort like persist: the JSON snapshot stays
// the durable source of truth, and a failed (or missing) binary only
// costs the fallback re-index at recovery.
func (m *Manager) persistAnswer(st JobStatus, built *answer.Store) {
	if m.snaps == nil || built == nil {
		return
	}
	if err := m.snaps.saveAnswer(st.ID, built.AppendBinary(nil)); err != nil {
		m.log.Warn("binary answer snapshot not written",
			"job_id", st.ID, "trace_id", st.TraceID, "store", st.Spec.Store, "error", err)
		return
	}
	m.log.Info("binary answer snapshot written",
		"job_id", st.ID, "trace_id", st.TraceID, "store", st.Spec.Store,
		"tuples", built.Len())
}

// observeFinish folds one execution's ending into the metrics and the
// structured log: terminal counters, job duration/queries, index-swap
// accounting, and one lifecycle line per ending (errors carry the job
// id, store and plan summary so a failure is diagnosable from the log
// alone).
func (m *Manager) observeFinish(st JobStatus, requeued, published bool, buildDur time.Duration) {
	attrs := []any{
		"job_id", st.ID, "trace_id", st.TraceID,
		"store", st.Spec.storeLabel(), "plan", st.Spec.planSummary(),
		"queries", st.Queries, "skyline", st.Skyline,
	}
	if st.State.Terminal() && !st.StartedAt.IsZero() {
		m.met.jobSeconds.Observe(st.FinishedAt.Sub(st.StartedAt))
		m.met.jobQueries.Add(int64(st.Queries))
		attrs = append(attrs, "duration", st.FinishedAt.Sub(st.StartedAt))
	}
	switch {
	case requeued:
		m.met.jobsRetried.Inc()
		m.log.Warn("job parked for retry (upstream interrupted)", append(attrs, "note", st.Error)...)
		return
	case st.State == StateDone:
		m.met.jobsDone.Inc()
		if st.Error != "" {
			attrs = append(attrs, "note", st.Error)
		}
		m.log.Info("job done", append(attrs, "complete", st.Complete)...)
	case st.State == StateFailed:
		m.met.jobsFailed.Inc()
		m.log.Error("job failed", append(attrs, "error", st.Error)...)
	case st.State == StateCancelled:
		m.met.jobsCancelled.Inc()
		m.log.Info("job cancelled", attrs...)
	default: // parked by shutdown, back to queued
		m.log.Info("job parked by shutdown", "job_id", st.ID, "trace_id", st.TraceID)
	}
	if published {
		m.met.indexSwaps.Inc()
		m.met.indexBuild.Observe(buildDur)
		m.log.Info("answer index published",
			"job_id", st.ID, "trace_id", st.TraceID, "store", st.Spec.Store,
			"tuples", st.Skyline, "build", buildDur)
	}
}

// shouldRetry reports whether the outcome is a recoverable upstream
// interruption (rate limit or transient outage) a resumable job should
// park-and-retry for. Caller holds j.mu.
func (m *Manager) shouldRetry(j *job, oc outcome) bool {
	st := &j.status
	if !st.Spec.Resumable {
		return false
	}
	if !errors.Is(oc.err, hidden.ErrRateLimited) && !errors.Is(oc.err, retry.ErrUnavailable) {
		return false
	}
	if st.Spec.Budget > 0 && oc.queries >= st.Spec.Budget {
		return false // the job's own budget is what ran out
	}
	if oc.queries > j.retryMark {
		j.noProgress = 0
	} else {
		j.noProgress++
	}
	j.retryMark = oc.queries
	return j.noProgress < maxNoProgressRetries
}

// retryDelayFor escalates the park-and-retry delay with consecutive
// no-progress retries: RetryDelay (15s) doubled n times, capped at
// MaxRetryDelay (8x RetryDelay).
func (m *Manager) retryDelayFor(noProgress int) time.Duration {
	p := retry.Policy{BaseBackoff: m.cfg.RetryDelay, MaxBackoff: m.cfg.MaxRetryDelay, Multiplier: 2, NoJitter: true}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 15 * time.Second
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 8 * p.BaseBackoff
	}
	return p.Backoff(noProgress+1, 0, nil)
}

// requeueAfter puts the job back on the FIFO queue once the retry delay
// has passed (no-op when the manager has closed — the snapshot already
// records the job as queued for the next process).
func (m *Manager) requeueAfter(id string, d time.Duration) {
	time.AfterFunc(d, func() {
		m.mu.Lock()
		if !m.closed {
			m.queue = append(m.queue, id)
			m.schedule()
		}
		m.mu.Unlock()
	})
}

// persist writes the job to the snapshot store (no-op without one).
// While a job runs, only its own goroutine calls persist, so the
// session is never serialized mid-mutation.
func (m *Manager) persist(j *job) {
	if m.snaps == nil {
		return
	}
	j.mu.Lock()
	snap := jobSnapshot{Status: j.status.clone(), Session: j.session}
	j.mu.Unlock()
	_ = m.snaps.save(snap) // persistence is best-effort; serving goes on
}

// Recover loads the snapshot store and re-enqueues every job a previous
// process left queued or running. Resumable jobs continue from their
// checkpointed session with exact query accounting; others restart from
// scratch. Terminal jobs are loaded for listing and result serving.
// Call it after registering the stores; it returns how many jobs were
// re-enqueued.
func (m *Manager) Recover() (int, error) {
	if m.snaps == nil {
		return 0, nil
	}
	snaps, err := m.snaps.load()
	if err != nil {
		return 0, err
	}
	resumed := 0
	m.mu.Lock()
	for _, sn := range snaps {
		st := sn.Status
		if st.ID == "" {
			continue
		}
		if _, dup := m.jobs[st.ID]; dup {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(st.ID, "j")); err == nil && n > m.seq {
			m.seq = n
		}
		j := &job{status: st, session: sn.Session}
		m.jobs[st.ID] = j
		m.order = append(m.order, st.ID)
		if st.State.Terminal() {
			continue
		}
		j.status.State = StateQueued
		j.status.Restarts++
		j.status.Error = ""
		j.status.StartedAt = time.Time{}
		if sn.Session != nil {
			j.status.Queries = sn.Session.Queries
			j.status.Skyline = len(sn.Session.Skyline)
		} else {
			j.status.Queries = 0
			j.status.Skyline = 0
		}
		m.queue = append(m.queue, st.ID)
		resumed++
	}
	sort.Strings(m.order)
	// Serve answers again before any re-enqueued job runs: the latest
	// complete result per store is compiled straight from its snapshot.
	m.rebuildAnswersLocked()
	m.schedule()
	m.mu.Unlock()
	// The readiness gate opens exactly here: every snapshot has been
	// replayed and the last answer index rebuilt, so GET /readyz flips
	// from 503 to 200 the moment recovered results are servable.
	m.health.SetReady()
	return resumed, nil
}

// Health summarizes the manager for monitoring.
type Health struct {
	Stores []string `json:"stores"`
	// Answers lists the stores whose answer index is loaded and serving.
	Answers []string `json:"answers"`
	Jobs    int      `json:"jobs"`
	Running int      `json:"running"`
	Queued  int      `json:"queued"`
}

// Stats returns a health snapshot.
func (m *Manager) Stats() Health {
	names := m.StoreNames()
	answers := m.answerNames()
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{
		Stores:  names,
		Answers: answers,
		Jobs:    len(m.jobs),
		Running: m.running,
		Queued:  len(m.queue),
	}
}

// Close drains the manager for shutdown: no new submissions are
// accepted, queued jobs stay persisted as queued, and running jobs are
// interrupted — their contexts are cancelled so upstream queries stop
// promptly, resumable jobs write a final checkpoint, and their
// snapshots return to the queue for the next process. Close waits for
// the running jobs to park (or ctx to expire).
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	// A draining daemon must leave load-balancer rotation before its
	// jobs are interrupted, and the sampler loop must not outlive the
	// manager. (Stop waits for the in-flight tick; it must not run
	// under m.mu — sampled GaugeFuncs take m.mu themselves.)
	m.health.SetUnready("shutting down")
	m.sampler.Stop()
	m.mu.Lock()
	var open []*job
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.status.State.Terminal() {
			open = append(open, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	// Park every non-terminal job — including jobs whose run goroutine is
	// scheduled but has not transitioned to running yet (they check the
	// flag before starting) — and cancel the ones already discovering.
	for _, j := range open {
		j.mu.Lock()
		j.parked = !j.cancelled
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	// Parked jobs never reach a terminal state, so their Watch channels
	// would otherwise stay open forever: close every remaining
	// subscription (the Watch contract: a closed channel means "no more
	// updates here; read the final state with Get").
	closeWatchers := func() {
		for _, j := range open {
			j.mu.Lock()
			for ch := range j.subs {
				close(ch)
			}
			j.subs = nil
			j.mu.Unlock()
		}
	}
	select {
	case <-done:
		closeWatchers()
		return nil
	case <-ctx.Done():
		closeWatchers()
		return fmt.Errorf("service: shutdown interrupted: %w", ctx.Err())
	}
}
