// Package federate implements the paper's motivating third-party
// application (§1): a meta-search service that discovers the skyline of
// several hidden web databases — each with its own interface capabilities
// and proprietary ranking — merges them into one global Pareto frontier,
// and then answers arbitrary user-defined monotonic ranking queries
// locally, with zero further web queries.
//
// The correctness hinge is a classical skyline identity: the skyline of a
// union is contained in the union of the skylines, so per-store discovery
// followed by a local merge loses nothing. And because the top-1 tuple of
// every monotonic scoring function is on the skyline (a dominated tuple
// scores strictly worse than its dominator), the merged frontier answers
// every such top-1 — and, via the K-skyband, every top-k — exactly.
package federate

import (
	"errors"
	"fmt"
	"sort"

	"hiddensky/internal/core"
	"hiddensky/internal/engine"
	"hiddensky/internal/qcache"
	"hiddensky/internal/skyline"
)

// Store is one participating hidden database.
type Store struct {
	// Name identifies the store in results ("Blue Nile", ...).
	Name string
	// DB is the store's top-k search interface.
	DB core.Interface
}

// Offer is one Pareto-optimal tuple together with its origin.
type Offer struct {
	// Store names the database the tuple came from.
	Store string
	// Tuple holds the integer-coded ranking attributes (smaller better).
	Tuple []int
}

// Result is the outcome of a federated discovery.
type Result struct {
	// Frontier holds the global skyline across every store: offers not
	// dominated by any offer of any store. Ties across stores (equal
	// value vectors) are all kept — they are genuinely interchangeable.
	Frontier []Offer
	// PerStore records each store's own skyline size and query cost.
	PerStore []StoreStats
	// Queries is the total number of web queries across all stores.
	Queries int
	// Complete is false when at least one store's discovery was cut short
	// (its partial skyline still contributes — the anytime property).
	Complete bool
}

// StoreStats summarizes one store's discovery run.
type StoreStats struct {
	Store    string
	Skyline  int
	Queries  int
	Complete bool
}

// Discover runs skyline discovery against every store, one store at a
// time (dispatching on each store's interface mixture), and merges the
// results into the global frontier. Stores must agree on the
// ranking-attribute schema: same attribute order and preferential
// encoding. A per-store budget error is tolerated and surfaced through
// Result.Complete. It is DiscoverFleet with one store in flight.
func Discover(stores []Store, opt core.Options) (Result, error) {
	return DiscoverFleet(stores, opt, FleetOptions{MaxStores: 1})
}

// mergeOffers keeps every offer not strictly dominated by another; equal
// value vectors from different stores all survive.
func mergeOffers(offers []Offer) []Offer {
	var out []Offer
	for i, o := range offers {
		dominated := false
		for j, p := range offers {
			if i == j {
				continue
			}
			if skyline.Dominates(p.Tuple, o.Tuple) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, o)
		}
	}
	return out
}

// Scorer is a user-defined monotonic scoring function: lower is better,
// and it must be non-decreasing in every attribute (the library cannot
// verify this; Rank panics on nil).
type Scorer func(tuple []int) float64

// WeightedScorer builds the common linear scorer from positive weights.
func WeightedScorer(weights []float64) (Scorer, error) {
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("federate: weights must be positive for monotonicity, got %v", w)
		}
	}
	ws := append([]float64(nil), weights...)
	return func(t []int) float64 {
		if len(t) != len(ws) {
			return 0
		}
		s := 0.0
		for i, v := range t {
			s += ws[i] * float64(v)
		}
		return s
	}, nil
}

// Rank orders the frontier under a user-defined monotonic scorer and
// returns the best `limit` offers (all of them when limit <= 0). No web
// queries are issued: the frontier provably contains the optimum of every
// monotonic scoring function.
func (r Result) Rank(score Scorer, limit int) []Offer {
	if score == nil {
		panic("federate: nil scorer")
	}
	ranked := append([]Offer(nil), r.Frontier...)
	sort.SliceStable(ranked, func(a, b int) bool {
		return score(ranked[a].Tuple) < score(ranked[b].Tuple)
	})
	if limit > 0 && limit < len(ranked) {
		ranked = ranked[:limit]
	}
	return ranked
}

// Best returns the single top offer under the scorer.
func (r Result) Best(score Scorer) (Offer, bool) {
	top := r.Rank(score, 1)
	if len(top) == 0 {
		return Offer{}, false
	}
	return top[0], true
}

// DiscoverParallel is Discover with every store queried concurrently —
// stores are independent services, so their rate limits and latencies
// don't serialize. Results are merged identically to Discover; per-store
// statistics keep the stores' input order. It is DiscoverFleet with no
// fleet bound, budget or cache.
func DiscoverParallel(stores []Store, opt core.Options) (Result, error) {
	return DiscoverFleet(stores, opt, FleetOptions{})
}

// FleetOptions tunes a federated fleet run beyond the per-store discovery
// options.
type FleetOptions struct {
	// MaxStores bounds how many stores are discovered concurrently
	// (<= 0: all at once).
	MaxStores int
	// Request is the discovery request compiled per store (the zero
	// value: automatic algorithm dispatch, full skyline). An explicit
	// algorithm or a conjunctive filter applies to every store; band
	// and resumable requests are rejected — the fleet merges skylines,
	// and a multi-store checkpoint does not exist.
	Request core.Request
	// GlobalBudget, when positive, is the total number of web queries the
	// whole fleet may spend, shared atomically across stores. A store that
	// hits the exhausted budget stops with its partial (anytime) skyline
	// and the merged result is marked incomplete — exactly like a
	// per-store budget, but fleet-wide. Cached answers consume none of it.
	GlobalBudget int
	// Cache, when non-nil, fronts every store with the shared memoizing
	// query cache: repeated runs (and canonically equal queries inside one
	// run) are answered without touching the stores. Per-store answers are
	// keyed separately — stores never see each other's tuples.
	Cache *qcache.Cache
	// OnStoreDone, when non-nil, is invoked as each store's discovery
	// finishes (cleanly or with its anytime partial result) with the
	// store's input index and stats — the hook a serving layer uses to
	// stream fleet-job progress. Calls come from concurrent fleet workers
	// (never two for the same store) and must be concurrency-safe. Stores
	// that fail hard do not report.
	OnStoreDone func(i int, st StoreStats)
}

// DiscoverFleet orchestrates a fleet of discovery runs across the stores
// on the bounded engine executor: at most MaxStores discoveries in flight,
// one shared global query budget, and one shared memoizing cache. Each
// store's own run additionally honors opt.Parallelism, so a fleet of m
// stores with per-run parallelism p keeps up to m*p queries in flight.
func DiscoverFleet(stores []Store, opt core.Options, fleet FleetOptions) (Result, error) {
	if len(stores) == 0 {
		return Result{}, fmt.Errorf("federate: no stores")
	}
	m := stores[0].DB.NumAttrs()
	for _, s := range stores[1:] {
		if s.DB.NumAttrs() != m {
			return Result{}, fmt.Errorf("federate: store %q has %d attributes, want %d (schemas must align)",
				s.Name, s.DB.NumAttrs(), m)
		}
	}
	if fleet.Request.Band > 0 {
		return Result{}, fmt.Errorf("federate: fleet discovery merges skylines; K-skyband requests are not supported")
	}
	if fleet.Request.Resumable || fleet.Request.Session != nil {
		return Result{}, fmt.Errorf("federate: fleet discovery is not resumable")
	}
	budget := engine.NewBudget(fleet.GlobalBudget)
	type outcome struct {
		res core.Result
		err error
	}
	jobs := make([]func() outcome, len(stores))
	for i, s := range stores {
		db := s.DB
		if fleet.GlobalBudget > 0 {
			// The budget gate sits below the cache so cached hits consume
			// no budget; exhaustion surfaces as the rate-limit error the
			// algorithms already map to their anytime ErrBudget.
			db = engine.Limit(db, budget)
		}
		if fleet.Cache != nil {
			// Keyed by the bare store (not the per-call gate) so one warm
			// cache keeps serving the store across fleet runs.
			db = fleet.Cache.WrapAs(s.DB, db)
		}
		// Compile the fleet request per store before any query is spent:
		// stores may mix interface capabilities, so one store planning
		// to RQ-DB-SKY and its neighbor to MQ-DB-SKY is the normal case,
		// and a store that cannot satisfy the request (say a filter
		// operator its interface rejects) fails the fleet fast.
		plan, err := core.Plan(db, fleet.Request)
		if err != nil {
			return Result{}, fmt.Errorf("federate: store %q: %w", s.Name, err)
		}
		jobs[i] = func() outcome {
			res, err := plan.Run(opt)
			if fleet.OnStoreDone != nil && (err == nil || errors.Is(err, core.ErrBudget)) {
				fleet.OnStoreDone(i, StoreStats{
					Store:    stores[i].Name,
					Skyline:  len(res.Skyline),
					Queries:  res.Queries,
					Complete: res.Complete,
				})
			}
			return outcome{res: res, err: err}
		}
	}
	outcomes := engine.Fleet(fleet.MaxStores, jobs)

	out := Result{Complete: true}
	var all []Offer
	for i, s := range stores {
		oc := outcomes[i]
		if oc.err != nil && !errors.Is(oc.err, core.ErrBudget) {
			return out, fmt.Errorf("federate: store %q: %w", s.Name, oc.err)
		}
		out.Queries += oc.res.Queries
		out.Complete = out.Complete && oc.res.Complete
		out.PerStore = append(out.PerStore, StoreStats{
			Store:    s.Name,
			Skyline:  len(oc.res.Skyline),
			Queries:  oc.res.Queries,
			Complete: oc.res.Complete,
		})
		for _, t := range oc.res.Skyline {
			all = append(all, Offer{Store: s.Name, Tuple: t})
		}
	}
	out.Frontier = mergeOffers(all)
	return out, nil
}
