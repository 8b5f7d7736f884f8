// Package core implements the skyline-discovery algorithms of "Discovering
// the Skyline of Web Databases" (Asudeh, Thirumuruganathan, Zhang, Das,
// 2016) over top-k hidden web interfaces, each reached through the
// planner (Plan / Run) as one Request:
//
//   - AlgoSQ — Algorithm 1, one-ended range interfaces (SQ)
//   - AlgoRQ — Algorithm 2, two-ended range interfaces (RQ)
//   - AlgoPQ — Algorithm 3 on two point-predicate attributes, Algorithm 5
//     (with the Algorithm 4 subspace subroutine) on more
//   - AlgoMQ — Algorithm 6, arbitrary mixtures of SQ, RQ and PQ
//   - Request.Band — the K-skyband extensions of §7.2 (RQ, PQ, SQ)
//
// The paper-named entry points (SQDBSky ... SQBandSky) are one-line Run
// calls in the hiddensky facade; here they are unexported, so no layer
// above core can dispatch around the planner.
//
// All algorithms interact with the database only through the Interface
// type, count every query they issue, and feature the paper's anytime
// property: when the query budget runs out mid-run they return the
// skyline tuples discovered so far together with ErrBudget.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"hiddensky/internal/engine"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/qcache"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// Interface is the minimal view of a hidden web database the discovery
// algorithms need. *hidden.DB implements it; tests wrap it to instrument
// query streams.
type Interface interface {
	// Query executes a top-k conjunctive query.
	Query(q query.Q) (hidden.Result, error)
	// NumAttrs returns the number of ranking attributes.
	NumAttrs() int
	// K returns the top-k output limit.
	K() int
	// Cap returns the predicate capability of attribute i.
	Cap(i int) hidden.Capability
	// Domain returns the advertised value range of attribute i.
	Domain(i int) query.Interval
}

// ErrBudget is wrapped into the error returned when the database's rate
// limit interrupts discovery; the accompanying Result still carries every
// skyline tuple found so far (the anytime property).
var ErrBudget = errors.New("core: query budget exhausted (partial result)")

// Options tunes a discovery run. The zero value reproduces the paper's
// algorithms faithfully.
type Options struct {
	// Trace records a TraceEvent each time the candidate skyline set gains
	// a tuple, enabling the paper's anytime plots (Figures 20-23).
	Trace bool
	// UseOverflowFlag trusts the interface's overflow indicator ("showing
	// k of many") to decide whether a node needs expanding. The paper's
	// model only observes the returned tuples and must treat every full
	// answer (|T| = k) as potentially truncated, so the default is false;
	// enabling this saves queries on interfaces that expose result counts.
	UseOverflowFlag bool
	// SkipProvablyEmpty suppresses issuing queries whose canonical box is
	// empty given the advertised attribute domains (a real client can read
	// those off the search form). The paper's cost model issues them, so
	// the default is false.
	SkipProvablyEmpty bool
	// MaxQueries, when positive, stops discovery after that many queries
	// with a partial (anytime) result and ErrBudget. It bounds the
	// queries the algorithm issues — the paper's cost metric — so a
	// query answered by Cache still counts; to bound only the queries
	// that reach the backend, gate the backend itself (engine.Limit /
	// federate.FleetOptions.GlobalBudget, which sit beneath the cache).
	MaxQueries int
	// Parallelism, when > 1, runs the independent branches of the
	// divide-and-conquer cascades (sibling subtrees of SQ/RQ-DB-SKY, the
	// 2D subspaces of PQ-DB-SKY, the cell trees of MQ-DB-SKY's point
	// phase) on a bounded worker pool with at most that many interface
	// queries in flight. The discovered skyline is the same set as the
	// sequential run's and is returned in deterministic (lexicographic)
	// order; query accounting stays exact under a shared atomic budget.
	// Values <= 1 reproduce the paper's sequential execution bit for bit.
	Parallelism int
	// Cache, when non-nil, routes every interface query through the shared
	// memoizing query cache: canonically equal queries are answered once,
	// concurrent duplicates are coalesced, and cached hits never reach
	// the backend (so they consume none of its rate limit; they do still
	// count toward MaxQueries and Result.Queries, which measure the
	// algorithm's own query cost). The same Cache may be shared across
	// runs and across databases.
	Cache *qcache.Cache
	// Ctx, when non-nil, aborts discovery when the context is cancelled:
	// no further interface queries are issued (the check happens before
	// every query, and parallel runs additionally drop their unstarted
	// pool tasks), and the run returns its partial anytime result with an
	// error that errors.Is-matches both ErrBudget and the context's error.
	// A cancelled job therefore stops hitting the upstream service
	// promptly but still surfaces everything it discovered.
	Ctx context.Context
	// Progress, when non-nil, is invoked after every counted query with
	// the run's live cost and candidate-skyline size — the hook a serving
	// layer uses to stream job progress. Under Parallelism > 1 it is
	// called concurrently from worker goroutines and must be
	// concurrency-safe; events may then arrive out of order (consumers
	// publishing a live counter should drop stale events). It must not
	// call back into the running discovery.
	Progress func(ProgressEvent)
	// PoolMetrics, when non-nil, instruments the run's worker pool
	// (parallel runs only — a sequential run has no pool). One bundle
	// is safely shared by many concurrent runs; a serving daemon passes
	// the same bundle to every job so the series aggregate fleet-wide.
	PoolMetrics *engine.PoolMetrics
	// Tracer, when non-nil, records spans for this run: a "core.run"
	// phase span around the whole execution plus one "engine.task" span
	// per pool task (and whatever the interface beneath — cache, web
	// client — records under the same tracer). Nil costs nothing.
	Tracer *obs.Tracer
	// TraceParent is the span id new root-level spans of this run hang
	// under (0: top of the trace). Set by the serving layer to the
	// job's root span.
	TraceParent uint64
}

// ProgressEvent is a live snapshot of a discovery run, delivered through
// Options.Progress.
type ProgressEvent struct {
	// Queries is the number of queries counted so far in this run (for a
	// Session.Resume call: in this slice).
	Queries int
	// Skyline is the current candidate-skyline size.
	Skyline int
}

// TraceEvent records that Tuple joined the candidate skyline after Queries
// queries had been issued.
type TraceEvent struct {
	Queries int
	Tuple   []int
}

// Result is the outcome of a discovery run.
type Result struct {
	// Skyline holds the discovered skyline tuples (exact and complete when
	// err == nil), in discovery order after final dominance filtering.
	Skyline [][]int
	// Queries is the number of queries issued to the interface.
	Queries int
	// Trace carries discovery events when Options.Trace was set.
	Trace []TraceEvent
	// Complete is false when the run ended early (budget) or the algorithm
	// ran in an explicitly partial mode (SQ sky band).
	Complete bool
	// Band is the K-skyband level the run discovered (0: a plain
	// skyline run). Set by planner-driven band runs (Request.Band > 0);
	// Skyline then holds the band tuples.
	Band int
	// BandCounts[i] is the number of database tuples dominating
	// Skyline[i]. Populated only for band runs (exact when Complete).
	BandCounts []int
}

// ctx carries the shared per-run state of every algorithm. A mutex guards
// the mutable pieces (query accounting, candidate skyline, trace) so that
// the parallel executors can share one ctx across workers; the sequential
// paths take the same uncontended locks, which costs nothing next to a
// query.
type ctx struct {
	db      Interface
	opt     Options
	m       int
	k       int
	domains []query.Interval

	pool *engine.Pool // non-nil only while a parallel entry point runs

	mu       sync.Mutex
	queries  int     // successfully issued queries
	inflight int     // reserved but not yet answered (parallel budget exactness)
	sky      [][]int // current candidate skyline (mutually non-dominated)
	merged   tupleMap[struct{}]
	trace    []TraceEvent

	// open holds the R(q) lower bounds of every parallel RQ-tree node
	// whose task has not completed (see treeWalker.spawn), keyed by an
	// id from lastNode; origin maps a tuple key to the R(q) lower bounds
	// of an answer that returned it (nil: a Q answer). Both feed the
	// partial-result filter in result.
	open     map[int]openRegion
	lastNode int
	origin   tupleMap[[]int]
}

// openRegion is a tree node's R(q) lower bounds: lb[j] bounds attribute
// attrs[j] from below.
type openRegion struct {
	attrs []int
	lb    []int
}

func newCtx(db Interface, opt Options) *ctx {
	c := &ctx{db: db, opt: opt, m: db.NumAttrs(), k: db.K()}
	c.domains = make([]query.Interval, c.m)
	for i := 0; i < c.m; i++ {
		c.domains[i] = db.Domain(i)
	}
	return c
}

// prepare applies the Options that change what the algorithms talk to:
// a non-nil Cache wraps the database in the shared memoizing view. Every
// public entry point calls it exactly once (the Cache field is cleared so
// nested dispatch cannot double-wrap).
func prepare(db Interface, opt Options) (Interface, Options) {
	if opt.Cache != nil {
		db = opt.Cache.Wrap(db)
		opt.Cache = nil
	}
	return db, opt
}

// newPool returns the bounded worker pool for this run, or nil when the
// run is sequential. Callers own the pool and must Close it.
func (c *ctx) newPool() *engine.Pool {
	if c.opt.Parallelism <= 1 {
		return nil
	}
	if c.opt.Ctx != nil {
		c.pool = engine.NewPoolContext(c.opt.Ctx, c.opt.Parallelism)
	} else {
		c.pool = engine.NewPool(c.opt.Parallelism)
	}
	if c.opt.PoolMetrics != nil {
		c.pool.Instrument(c.opt.PoolMetrics)
	}
	if c.opt.Tracer != nil {
		c.pool.Trace(c.opt.Tracer, c.opt.TraceParent)
	}
	return c.pool
}

// issue sends q to the database, enforcing the local budget, and returns
// the result. A budget stop or rate limit surfaces as ErrBudget. The
// budget is enforced by reservation: a slot is taken before the query and
// refunded if the query fails, so even with many workers in flight at most
// MaxQueries backend queries are ever issued and every success is counted
// exactly once. Under SkipProvablyEmpty a query whose canonical box is
// empty given the advertised domains is answered here, empty and
// uncounted, without reaching the database.
func (c *ctx) issue(q query.Q) (hidden.Result, error) {
	if c.opt.SkipProvablyEmpty && q.Canonicalize(c.domains).Empty() {
		return hidden.Result{}, nil
	}
	if c.opt.Ctx != nil {
		if cerr := c.opt.Ctx.Err(); cerr != nil {
			return hidden.Result{}, fmt.Errorf("%w: %w", ErrBudget, cerr)
		}
	}
	c.mu.Lock()
	if c.opt.MaxQueries > 0 && c.queries+c.inflight >= c.opt.MaxQueries {
		c.mu.Unlock()
		return hidden.Result{}, ErrBudget
	}
	c.inflight++
	c.mu.Unlock()

	res, err := c.db.Query(q)

	c.mu.Lock()
	c.inflight--
	var prog ProgressEvent
	if err == nil {
		c.queries++
		prog = ProgressEvent{Queries: c.queries, Skyline: len(c.sky)}
	}
	c.mu.Unlock()
	if err == nil && c.opt.Progress != nil {
		c.opt.Progress(prog)
	}

	if err != nil {
		if errors.Is(err, hidden.ErrRateLimited) {
			// Both conditions stay matchable: ErrBudget for the anytime
			// contract, ErrRateLimited so a serving layer can tell an
			// upstream quota from a caller-requested budget stop.
			return hidden.Result{}, fmt.Errorf("%w: %w", ErrBudget, err)
		}
		return hidden.Result{}, err
	}
	return res, nil
}

// overflowed reports whether a query answer must be treated as truncated:
// under the paper's model any answer carrying k tuples may hide more;
// with UseOverflowFlag the interface's own indicator decides.
func (c *ctx) overflowed(res hidden.Result) bool {
	if c.opt.UseOverflowFlag {
		return res.Overflow
	}
	return len(res.Tuples) >= c.k
}

// merge folds tuple t into the candidate skyline, tracing additions. A
// value combination is only processed once: re-merging an already-seen
// tuple cannot change the candidate set (if it was kept it is present or
// was displaced by a dominator; if rejected it stays dominated).
func (c *ctx) merge(t []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.merged.add(t, struct{}{}) {
		return
	}
	var kept bool
	c.sky, kept = skyline.Merge(c.sky, t)
	if kept && c.opt.Trace {
		c.trace = append(c.trace, TraceEvent{Queries: c.queries, Tuple: append([]int(nil), t...)})
	}
}

// findDominator returns a current candidate-skyline tuple dominating t, or
// nil. Used by the RQ walker to pick a stronger branching tuple; under
// parallelism the snapshot semantics are sound (any returned dominator is
// a real database tuple).
func (c *ctx) findDominator(t []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sky {
		if skyline.Dominates(s, t) {
			return s
		}
	}
	return nil
}

// skySnapshot returns the current candidate skyline. The tuples themselves
// are never mutated after discovery, so sharing them is safe.
func (c *ctx) skySnapshot() [][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]int(nil), c.sky...)
}

// tupleMap maps tuples, by value, to values of type V. A tuple hashes
// its ints, and tuples with equal hashes are told apart by comparing
// them. It keeps the tuples it is given, which core never mutates. The
// zero value is an empty map.
type tupleMap[V any] struct {
	head    map[uint64]int32 // hash -> 1 + index of its newest entry
	entries []tupleEntry[V]
}

type tupleEntry[V any] struct {
	t    []int
	v    V
	next int32 // 1 + index of the previous entry with the same hash; 0 ends
}

func hashTuple(t []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// get returns a pointer to t's value, or nil when t is absent.
func (s *tupleMap[V]) get(t []int) *V {
	for i := s.head[hashTuple(t)]; i != 0; i = s.entries[i-1].next {
		if e := &s.entries[i-1]; slices.Equal(e.t, t) {
			return &e.v
		}
	}
	return nil
}

// add inserts t with value v unless t is present, and reports whether it
// did.
func (s *tupleMap[V]) add(t []int, v V) bool {
	h := hashTuple(t)
	for i := s.head[h]; i != 0; i = s.entries[i-1].next {
		if slices.Equal(s.entries[i-1].t, t) {
			return false
		}
	}
	if s.head == nil {
		s.head = map[uint64]int32{}
	}
	s.entries = append(s.entries, tupleEntry[V]{t: t, v: v, next: s.head[h]})
	s.head[h] = int32(len(s.entries))
	return true
}

// openNode registers a parallel RQ-tree node as unfinished and returns
// its id for closeNode.
func (c *ctx) openNode(attrs, lb []int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open == nil {
		c.open = map[int]openRegion{}
	}
	c.lastNode++
	c.open[c.lastNode] = openRegion{attrs: attrs, lb: lb}
	return c.lastNode
}

// closeNode marks node id's task complete.
func (c *ctx) closeNode(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.open, id)
}

// noteOrigin records the R(q) lower bounds lb of the answer that
// returned ts (nil for a Q answer). A Q region is downward closed below
// the walk's base predicates, so a tuple's dominators there rank higher
// and come back in the same answer: such a tuple is always safe, and nil
// overrides any earlier bounds.
func (c *ctx) noteOrigin(ts [][]int, lb []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range ts {
		if prev := c.origin.get(t); prev == nil {
			c.origin.add(t, lb)
		} else if lb == nil {
			*prev = nil
		}
	}
}

// openCanDominate reports whether some unfinished node's region may hold
// an undiscovered tuple u dominating t. u <= t inside the node's R(q)
// needs lb <= t on its branching attributes. And u lies outside the
// region of the answer that returned t — inside it u would rank higher
// and have come back too — so u breaks one of that answer's lower
// bounds, which a node whose bounds are all at least as tight cannot
// hold. Every walker of one run branches on the same attributes in the
// same order, so lower bounds compare position by position.
func (c *ctx) openCanDominate(t []int) bool {
	var src []int
	if p := c.origin.get(t); p != nil {
		if *p == nil {
			return false
		}
		src = *p
	}
	for _, r := range c.open {
		below, looser := true, src == nil
		for j, a := range r.attrs {
			if r.lb[j] > t[a] {
				below = false
				break
			}
			if src != nil && r.lb[j] < src[j] {
				looser = true
			}
		}
		if below && looser {
			return true
		}
	}
	return false
}

// mergeAll folds every returned tuple into the candidate skyline.
func (c *ctx) mergeAll(ts [][]int) {
	for _, t := range ts {
		c.merge(t)
	}
}

// result packages the context into a Result; err distinguishes the anytime
// partial case from hard failures. Parallel runs sort the skyline
// lexicographically — worker scheduling makes discovery order
// nondeterministic, and a deterministic merge order is part of the
// parallel contract; sequential runs keep the paper's discovery order.
func (c *ctx) result(err error) (Result, error) {
	err = anytimeErr(err)
	res := Result{
		Skyline:  append([][]int(nil), c.sky...),
		Queries:  c.queries,
		Trace:    c.trace,
		Complete: err == nil,
	}
	if err != nil && len(c.open) > 0 {
		// A stopped parallel RQ walk: keep only the tuples no unfinished
		// region can dominate (the rest may be displaced by a tuple the
		// dropped tasks never fetched).
		kept := res.Skyline[:0]
		for _, t := range res.Skyline {
			if !c.openCanDominate(t) {
				kept = append(kept, t)
			}
		}
		res.Skyline = kept
	}
	if c.pool != nil {
		sortTuples(res.Skyline)
	}
	return res, err
}

// anytimeErr normalizes cancellation (a dropped pool task's raw context
// error, or a context-bound backend aborted mid-request) to the anytime
// budget shape: callers see a partial result plus an error matching both
// ErrBudget and the context error.
func anytimeErr(err error) error {
	if err != nil && !errors.Is(err, ErrBudget) &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return fmt.Errorf("%w: %w", ErrBudget, err)
	}
	return err
}

// sortTuples orders tuples lexicographically in place.
func sortTuples(ts [][]int) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for x := range a {
			if x >= len(b) || a[x] != b[x] {
				return x < len(b) && a[x] < b[x]
			}
		}
		return false
	})
}

// attrsByCap partitions attribute indices by their interface capability.
func attrsByCap(db Interface) (sq, rq, pq []int) {
	for i := 0; i < db.NumAttrs(); i++ {
		switch db.Cap(i) {
		case hidden.SQ:
			sq = append(sq, i)
		case hidden.RQ:
			rq = append(rq, i)
		case hidden.PQ:
			pq = append(pq, i)
		}
	}
	return sq, rq, pq
}
