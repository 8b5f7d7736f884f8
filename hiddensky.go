// Package hiddensky is a Go implementation of "Discovering the Skyline of
// Web Databases" (Asudeh, Thirumuruganathan, Zhang, Das — VLDB 2016): a
// library for retrieving all skyline tuples from a hidden web database
// that is only reachable through a top-k conjunctive search interface with
// an unknown (but domination-consistent) ranking function.
//
// The package is a facade re-exporting the library surface:
//
//   - the query model (Predicate, Q, operators),
//   - the hidden-database simulator (DB, Config, rankings, the SQ/RQ/PQ
//     interface taxonomy),
//   - the discovery algorithms (SQDBSky, RQDBSky, PQ2DSky, PQDBSky,
//     MQDBSky / Discover, and the K-skyband variants),
//   - the crawling baseline (Crawl, CrawlSkyline),
//   - the serving layer (JobManager, the HTTP job API behind
//     cmd/skylined, and its Go client) for long-running, resumable,
//     checkpointed discovery jobs,
//   - the answer read path (AnswerStore / BuildAnswerStore, hot-swapped
//     per store by the job manager and queried through cmd/skyanswer):
//     a materialized skyline/K-skyband index answering top-k under any
//     client weight vector, subspace skylines and dominance tests
//     without touching the upstream database,
//   - local skyline computation, data generators, the closed-form cost
//     analysis, and the benchmark harness regenerating every figure of the
//     paper's evaluation.
//
// Quickstart:
//
//	d := hiddensky.BlueNile(1, 50000)
//	db := d.DB(50, hiddensky.AttrRank{Attr: 0}) // ranked by price
//	res, err := hiddensky.Discover(db, hiddensky.Options{})
//	// res.Skyline now holds every Pareto-optimal diamond;
//	// res.Queries is what it cost through the top-50 interface.
package hiddensky

import (
	"fmt"

	"hiddensky/internal/analysis"
	"hiddensky/internal/answer"
	"hiddensky/internal/bench"
	"hiddensky/internal/core"
	"hiddensky/internal/crawl"
	"hiddensky/internal/datagen"
	"hiddensky/internal/engine"
	"hiddensky/internal/federate"
	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
	"hiddensky/internal/query"
	"hiddensky/internal/service"
	"hiddensky/internal/skyline"
	"hiddensky/internal/web"
)

// Query model.
type (
	// Op is a predicate comparison operator.
	Op = query.Op
	// Predicate is one comparison on one ranking attribute.
	Predicate = query.Predicate
	// Q is a conjunctive query (nil = SELECT *).
	Q = query.Q
	// Interval is a closed integer interval.
	Interval = query.Interval
)

// Predicate operators.
const (
	LT = query.LT
	LE = query.LE
	EQ = query.EQ
	GE = query.GE
	GT = query.GT
)

// Hidden-database simulator.
type (
	// Capability is the per-attribute interface taxonomy (SQ/RQ/PQ).
	Capability = hidden.Capability
	// DB is a simulated hidden web database behind a top-k interface.
	DB = hidden.DB
	// Config describes a hidden database to construct.
	Config = hidden.Config
	// Result is a top-k query answer.
	QueryResult = hidden.Result
	// Ranking is a domination-consistent ranking function.
	Ranking = hidden.Ranking
	// SumRank ranks by ascending attribute sum.
	SumRank = hidden.SumRank
	// WeightedRank ranks by an ascending positive-weighted sum.
	WeightedRank = hidden.WeightedRank
	// AttrRank ranks by one attribute (e.g. price low-to-high).
	AttrRank = hidden.AttrRank
	// LexRank ranks lexicographically.
	LexRank = hidden.LexRank
	// RandomWeightRank ranks by a seeded random positive weighting.
	RandomWeightRank = hidden.RandomWeightRank
	// RandomExtensionRank is the paper's average-case random ranking.
	RandomExtensionRank = hidden.RandomExtensionRank
	// AdversarialRank is a worst-case-leaning ranking.
	AdversarialRank = hidden.AdversarialRank
)

// Interface capabilities.
const (
	// SQ supports one-ended ranges (<, <=, =).
	SQ = hidden.SQ
	// RQ supports two-ended ranges (adds >=, >).
	RQ = hidden.RQ
	// PQ supports point predicates only (=).
	PQ = hidden.PQ
)

// Errors surfaced by the simulator and algorithms.
var (
	// ErrUnsupportedPredicate: the interface rejects the operator.
	ErrUnsupportedPredicate = hidden.ErrUnsupportedPredicate
	// ErrRateLimited: the per-client query budget is exhausted.
	ErrRateLimited = hidden.ErrRateLimited
	// ErrBudget: discovery stopped early with a partial (anytime) result.
	ErrBudget = core.ErrBudget
)

// New constructs a hidden database; MustNew panics on config errors.
var (
	New     = hidden.New
	MustNew = hidden.MustNew
	// ParseQuery parses a textual filter like "A0<500,A2>=3".
	ParseQuery = query.Parse
	// MustParseQuery is ParseQuery panicking on malformed input, for
	// fixed literals.
	MustParseQuery = query.MustParse
)

// Discovery algorithms.
type (
	// Options tunes a discovery run.
	Options = core.Options
	// DiscoveryResult is the outcome of a discovery run.
	DiscoveryResult = core.Result
	// TraceEvent is one anytime-discovery event.
	TraceEvent = core.TraceEvent
	// BandResult is the outcome of a K-skyband run.
	BandResult = core.BandResult
	// HiddenDB is the minimal interface the algorithms require.
	HiddenDB = core.Interface
	// Request declaratively describes one discovery run for the
	// capability-driven planner (algorithm, K-skyband level, filter,
	// resumability); the zero value is a full auto-dispatched skyline.
	Request = core.Request
	// Algo names a discovery algorithm family for Request.Algo.
	Algo = core.Algo
	// QueryPlan is a compiled Request, ready to execute.
	QueryPlan = core.QueryPlan
	// PlanError reports why a Request cannot run on an interface; it
	// matches ErrUnsupported under errors.Is.
	PlanError = core.PlanError
)

// Algorithm families a Request may name.
const (
	AlgoAuto = core.AlgoAuto
	AlgoSQ   = core.AlgoSQ
	AlgoRQ   = core.AlgoRQ
	AlgoPQ   = core.AlgoPQ
	AlgoMQ   = core.AlgoMQ
)

// The planner: every layer of the repository (the job service, the
// federated fleet, the CLIs) dispatches discovery through Plan/Run.
var (
	// Plan compiles a Request against an interface's capabilities,
	// returning a typed error for unsatisfiable combinations.
	Plan = core.Plan
	// Run compiles and executes a Request in one call.
	Run = core.Run
	// ParseAlgo normalizes a textual algorithm name ("" = auto).
	ParseAlgo = core.ParseAlgo
	// ErrUnsupported is the errors.Is target for request combinations
	// the interface cannot satisfy.
	ErrUnsupported = core.ErrUnsupported
)

// Algorithm entry points (see the paper sections in parentheses) —
// retained for paper fidelity. Each is one point of Request space, run
// through the planner; new code that wants features to compose
// (filter × band × explicit algorithm × resume) should call Run directly.

// Discover dispatches to the right algorithm for the interface's mixture
// of capabilities (MQ-DB-SKY's dispatch, §6).
func Discover(db HiddenDB, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{}, opt)
}

// DiscoverWhere discovers the skyline of the subset of the database
// matching a conjunctive filter (§2.1): every query carries the filter's
// predicates, each of which its attribute's interface must support.
func DiscoverWhere(db HiddenDB, filter Q, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{Filter: filter}, opt)
}

// SQDBSky discovers the skyline via one-ended ranges (Algorithm 1, §3).
func SQDBSky(db HiddenDB, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{Algo: AlgoSQ}, opt)
}

// RQDBSky discovers the skyline via two-ended ranges (Algorithm 2, §4).
func RQDBSky(db HiddenDB, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{Algo: AlgoRQ}, opt)
}

// PQ2DSky is the instance-optimal 2D point-predicate algorithm (§5.1).
func PQ2DSky(db HiddenDB, opt Options) (DiscoveryResult, error) {
	if m := db.NumAttrs(); m != 2 {
		return DiscoveryResult{}, fmt.Errorf("hiddensky: PQ2DSky needs 2 attributes, database has %d", m)
	}
	return PQDBSky(db, opt) // its two-attribute path is Algorithm 3
}

// PQDBSky handles higher-dimensional point predicates (§5.3).
func PQDBSky(db HiddenDB, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{Algo: AlgoPQ}, opt)
}

// MQDBSky handles arbitrary SQ/RQ/PQ mixtures (Algorithm 6, §6).
func MQDBSky(db HiddenDB, opt Options) (DiscoveryResult, error) {
	return Run(db, Request{Algo: AlgoMQ}, opt)
}

// RQBandSky discovers the K-skyband via two-ended ranges (§7.2).
func RQBandSky(db HiddenDB, kBand int, opt Options) (BandResult, error) {
	return bandSky(db, AlgoRQ, kBand, opt)
}

// PQBandSky discovers the K-skyband via point predicates (§7.2).
func PQBandSky(db HiddenDB, kBand int, opt Options) (BandResult, error) {
	return bandSky(db, AlgoPQ, kBand, opt)
}

// SQBandSky discovers the K-skyband via one-ended ranges (§7.2); the
// result may be partial (Complete false), as the paper proves it must.
func SQBandSky(db HiddenDB, kBand int, opt Options) (BandResult, error) {
	return bandSky(db, AlgoSQ, kBand, opt)
}

func bandSky(db HiddenDB, algo Algo, kBand int, opt Options) (BandResult, error) {
	if kBand < 1 {
		return BandResult{}, fmt.Errorf("hiddensky: band level must be >= 1, got %d", kBand)
	}
	res, err := Run(db, Request{Algo: algo, Band: kBand}, opt)
	return BandResult{Tuples: res.Skyline, Counts: res.BandCounts, Queries: res.Queries, Complete: res.Complete}, err
}

// Execution layer: the shared memoizing query cache and the bounded
// parallel engine. Discover runs them via Options.Cache / Options
// .Parallelism; the primitives are exported for direct composition.
type (
	// QueryCache is the concurrency-safe canonicalizing memo cache: equal
	// queries (under predicate normalization) are answered once, in-flight
	// duplicates are coalesced, and entries are LRU-bounded. One cache may
	// front many databases and many runs.
	QueryCache = qcache.Cache
	// QueryCacheConfig tunes a QueryCache.
	QueryCacheConfig = qcache.Config
	// QueryCacheStats snapshots hit/miss/dedup/eviction counters.
	QueryCacheStats = qcache.Stats
	// CachedDB is one database's cached view (implements HiddenDB).
	CachedDB = qcache.DB
	// QueryBudget is a shared atomic web-query allowance for fleets.
	QueryBudget = engine.Budget
	// WorkerPool is the bounded-worker executor behind Options.Parallelism.
	WorkerPool = engine.Pool
)

var (
	// NewQueryCache builds an empty shared query cache.
	NewQueryCache = qcache.New
	// NewQueryBudget builds a shared budget of n queries (n <= 0: unlimited).
	NewQueryBudget = engine.NewBudget
	// LimitQueries gates a database behind a shared budget; exhaustion
	// surfaces as ErrRateLimited and discovery degrades to its anytime
	// partial result.
	LimitQueries = engine.Limit
	// NewWorkerPool builds a bounded task pool (advanced use; Discover
	// manages its own pool via Options.Parallelism).
	NewWorkerPool = engine.NewPool
)

// Multi-session discovery under daily quotas, and query transcripts.
type (
	// Session is a serializable checkpoint of an SQ-DB-SKY run.
	Session = core.Session
	// Transcript records query/answer exchanges through any backend.
	Transcript = hidden.Transcript
	// TranscriptEntry is one recorded exchange.
	TranscriptEntry = hidden.TranscriptEntry
	// Replayer serves recorded answers with no database behind it.
	Replayer = hidden.Replayer
	// Backend is the querying surface transcripts wrap.
	Backend = hidden.Backend
)

var (
	// NewSession starts a checkpointable discovery run.
	NewSession = core.NewSession
	// ReadSession loads a serialized checkpoint.
	ReadSession = core.ReadSession
	// Record wraps a backend to capture its query stream.
	Record = hidden.Record
	// ReadReplayer loads a persisted transcript for offline replay.
	ReadReplayer = hidden.ReadReplayer
	// ErrNotRecorded is returned when replaying an unrecorded query.
	ErrNotRecorded = hidden.ErrNotRecorded
)

// HTTP layer: serve a hidden database as a JSON search API and discover
// skylines across a real network boundary.
type (
	// WebServer serves a hidden database over HTTP (package web).
	WebServer = web.Server
	// WebClient implements the discovery interface against a remote
	// endpoint.
	WebClient = web.Client
	// WebRateLimitError is returned when the remote endpoint answers 429
	// even after the client's single backoff-and-retry; it errors.Is-matches
	// ErrRateLimited.
	WebRateLimitError = web.RateLimitError
)

var (
	// NewWebServer wraps a database for HTTP serving.
	NewWebServer = web.NewServer
	// DialWeb connects to a remote hidden-database endpoint.
	DialWeb = web.Dial
)

// Serving layer: the discovery job manager behind cmd/skylined —
// long-running, resumable, progress-streaming discovery jobs over named
// stores, with a max-concurrent-jobs FIFO gate and a file-backed
// snapshot store that survives daemon restarts.
type (
	// JobManager runs discovery jobs against named stores.
	JobManager = service.Manager
	// JobManagerConfig tunes a JobManager (concurrency gate, snapshot
	// directory, shared cache, checkpoint interval).
	JobManagerConfig = service.Config
	// JobSpec describes one discovery job (store(s), algorithm, budget,
	// parallelism, cache, resumability).
	JobSpec = service.JobSpec
	// JobStatus is a job's externally visible state.
	JobStatus = service.JobStatus
	// JobState is a job's lifecycle state.
	JobState = service.JobState
	// ServiceHandler serves a JobManager over HTTP (the skylined API).
	ServiceHandler = service.Handler
	// ServiceClient is the Go client for a skylined daemon.
	ServiceClient = service.Client
	// ServiceHealth is the daemon's health summary.
	ServiceHealth = service.Health
	// DiscoveryProgress is one live progress event of a discovery run
	// (Options.Progress).
	DiscoveryProgress = core.ProgressEvent
)

// Job lifecycle states.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobDone      = service.StateDone
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

var (
	// NewJobManager builds a discovery job manager.
	NewJobManager = service.NewManager
	// NewServiceHandler wraps a JobManager in the HTTP job API.
	NewServiceHandler = service.NewHandler
	// DialService connects to a running skylined daemon.
	DialService = service.Dial
)

// Answer serving: the materialized read path built from a discovered
// skyline or K-skyband. A store answers every user's monotone ranking
// without spending one upstream query; a Handle hot-swaps fresh indexes
// under live traffic (lock-free readers).
type (
	// AnswerStore is the immutable materialized answer index.
	AnswerStore = answer.Store
	// AnswerOptions tunes BuildAnswerStore (band level, shard size).
	AnswerOptions = answer.Options
	// AnswerHandle is the atomic hot-swap publication point of a store.
	AnswerHandle = answer.Handle
	// AnswerInfo summarizes a store (tuples, attrs, band level, levels).
	AnswerInfo = answer.Info
	// AnswerTopKQuery is one top-k request (weights, k, filter).
	AnswerTopKQuery = answer.TopKQuery
	// AnswerTopKResult is a top-k answer with its exactness verdict.
	AnswerTopKResult = answer.TopKResult
	// AnswerRanked is one answered tuple with score and skyline level.
	AnswerRanked = answer.Ranked
	// AnswerRange is one per-attribute constraint of a filtered request.
	AnswerRange = answer.Range
)

var (
	// BuildAnswerStore materializes an answer index from tuples.
	BuildAnswerStore = answer.Build
	// ErrNoAnswer: a store has no materialized answer index yet.
	ErrNoAnswer = service.ErrNoAnswer
)

// Federated multi-store meta-search (the paper's motivating application).
type (
	// FederatedStore is one participating hidden database.
	FederatedStore = federate.Store
	// FederatedResult is the merged multi-store frontier.
	FederatedResult = federate.Result
	// FleetOptions tunes a federated fleet run (store concurrency, global
	// budget, shared cache).
	FleetOptions = federate.FleetOptions
	// Offer is one frontier tuple with its origin store.
	Offer = federate.Offer
	// Scorer is a user-defined monotonic scoring function.
	Scorer = federate.Scorer
)

var (
	// FederatedDiscover discovers and merges the skylines of many stores.
	FederatedDiscover = federate.Discover
	// FederatedDiscoverParallel queries the stores concurrently.
	FederatedDiscoverParallel = federate.DiscoverParallel
	// FederatedDiscoverFleet orchestrates stores on the bounded engine
	// executor with a global budget and shared cache.
	FederatedDiscoverFleet = federate.DiscoverFleet
	// WeightedScorer builds a linear monotonic scorer from positive weights.
	WeightedScorer = federate.WeightedScorer
)

// Crawling baseline.
type (
	// CrawlOptions tunes the BASELINE crawler.
	CrawlOptions = crawl.Options
	// CrawlResult is the outcome of a crawl.
	CrawlResult = crawl.Result
)

var (
	// Crawl retrieves the entire database via two-ended ranges.
	Crawl = crawl.Crawl
	// CrawlSkyline is the full BASELINE: crawl, then local skyline.
	CrawlSkyline = crawl.CrawlSkyline
)

// Local skyline computation.
var (
	// Dominates reports whether tuple a dominates tuple b.
	Dominates = skyline.Dominates
	// ComputeSkyline returns the skyline indices of an in-memory table.
	ComputeSkyline = skyline.Compute
	// ComputeSkylineTuples returns the skyline tuples themselves.
	ComputeSkylineTuples = skyline.ComputeTuples
	// ComputeSkyband returns the K-skyband indices.
	ComputeSkyband = skyline.Skyband
)

// Data generation.
type (
	// Dataset is a generated database plus interface metadata.
	Dataset = datagen.Dataset
	// DataAttr describes one generated ranking attribute.
	DataAttr = datagen.Attr
)

var (
	// Independent, Correlated, AntiCorrelated, CorrelationSweep generate
	// the classic synthetic skyline workloads.
	Independent      = datagen.Independent
	Correlated       = datagen.Correlated
	AntiCorrelated   = datagen.AntiCorrelated
	CorrelationSweep = datagen.CorrelationSweep
	// Flights synthesizes the DOT on-time database stand-in.
	Flights = datagen.Flights
	// BlueNile, YahooAutos, GoogleFlightsRoute synthesize the online
	// experiment databases at their published scales.
	BlueNile           = datagen.BlueNile
	YahooAutos         = datagen.YahooAutos
	GoogleFlightsRoute = datagen.GoogleFlightsRoute
	// ReadDatasetCSV / (Dataset).WriteCSV round-trip datasets as CSV.
	ReadDatasetCSV = datagen.ReadCSV
)

// Cost analysis (closed forms from §3-§5).
var (
	// AvgCostRecurrence is E(C_s) via equation (4).
	AvgCostRecurrence = analysis.AvgCostRecurrence
	// AvgCostClosedForm is equation (5).
	AvgCostClosedForm = analysis.AvgCostClosedForm
	// AvgCostExpBound is the (e + e·s/m)^m bound of equation (10).
	AvgCostExpBound = analysis.AvgCostExpBound
	// WorstCaseCost is the O(m·s^{m+1}) SQ worst case.
	WorstCaseCost = analysis.WorstCaseCost
	// PQ2DCost is the instance-optimal 2D cost of equation (11).
	PQ2DCost = analysis.PQ2DCost
)

// Benchmark harness.
type (
	// BenchConfig scales the experiment harness.
	BenchConfig = bench.Config
	// BenchFigure is a regenerated paper figure.
	BenchFigure = bench.Figure
	// BenchRunner regenerates one figure.
	BenchRunner = bench.Runner
)

var (
	// Figures returns a runner per paper figure.
	Figures = bench.All
	// FigureByID looks a runner up by id ("fig13").
	FigureByID = bench.ByID
)
