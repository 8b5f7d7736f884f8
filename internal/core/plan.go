package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"hiddensky/internal/query"
)

// This file is the capability-driven planner: the single dispatch layer
// that turns a declarative Request (which algorithm, which K-skyband
// level, which conjunctive filter, checkpointable or not) into an
// executable plan for a concrete interface. The paper keys each of its
// six algorithms to the interface's predicate capabilities; Plan is
// where that keying lives, once, instead of per-call-site switches in
// every layer above. Combinations the interface genuinely cannot
// satisfy (an MQ K-skyband, a ">=" filter on an SQ attribute, a
// checkpointed PQ walk) fail at plan time with a typed error that
// errors.Is-matches ErrUnsupported — never by silently dropping a
// request field.
//
// The algorithm functions (sqDBSky ... sqBandSky) are unexported: each
// is one point in Request space, reached only through Run, which is the
// package's one discovery entry point (Session.Resume stays exported for
// callers that drive a checkpoint themselves).

// Algo names a discovery algorithm family. The zero value ("") means
// AlgoAuto: dispatch on the interface's capability mixture.
type Algo string

// Algorithm families a Request may name.
const (
	// AlgoAuto picks the algorithm from the interface's SQ/RQ/PQ
	// capability mixture, exactly as MQ-DB-SKY's dispatch does.
	AlgoAuto Algo = "auto"
	// AlgoSQ is the one-ended-range tree walk (Algorithm 1); it also
	// runs on RQ attributes (a strictly stronger capability).
	AlgoSQ Algo = "sq"
	// AlgoRQ is the two-ended-range walk with emptiness pruning
	// (Algorithm 2); SQ attributes lose pruning power but stay correct.
	AlgoRQ Algo = "rq"
	// AlgoPQ is the point-predicate cascade (Algorithms 3-5); point
	// queries run on every capability.
	AlgoPQ Algo = "pq"
	// AlgoMQ is the mixed-interface two-phase algorithm (Algorithm 6).
	AlgoMQ Algo = "mq"
)

// ParseAlgo normalizes a textual algorithm name. The empty string and
// "auto" (any case) parse to AlgoAuto.
func ParseAlgo(s string) (Algo, error) {
	switch a := Algo(strings.ToLower(strings.TrimSpace(s))); a {
	case "", AlgoAuto:
		return AlgoAuto, nil
	case AlgoSQ, AlgoRQ, AlgoPQ, AlgoMQ:
		return a, nil
	default:
		return "", fmt.Errorf("core: unknown algorithm %q", s)
	}
}

// Request declaratively describes one discovery run. The zero value
// asks for the full skyline under automatic algorithm dispatch
// (MQ-DB-SKY's dispatch, §6). Execution tuning (budget, parallelism,
// cache, context, progress) stays in Options; the Request is only
// *what* to discover, so one Request can be planned against many
// stores.
type Request struct {
	// Algo picks the algorithm family ("" = AlgoAuto).
	Algo Algo
	// Band, when > 0, discovers the K-skyband of §7.2 at that level
	// instead of the skyline. Requires a uniform interface with a band
	// variant (RQ, PQ, or one-ended ranges everywhere for the partial
	// SQ walk); AlgoMQ has none.
	Band int
	// Filter restricts discovery to the matching subset (§2.1): every
	// issued query silently carries these conjunctive predicates, and
	// the advertised domains shrink to the filter's box. Each
	// predicate's operator must be supported by its attribute's
	// capability.
	Filter query.Q
	// Resumable runs the checkpointable SQ session walk so the run can
	// stop at a quota, serialize, and continue later without repeating
	// a counted query. Requires one-ended ranges on every attribute and
	// Algo auto or sq; composes with Filter (resume with the same
	// filter), not with Band.
	Resumable bool
	// Session, for resumable requests, is the checkpoint to continue
	// from (nil: a fresh session is started; retrieve it through
	// QueryPlan.Session to persist it).
	Session *Session
}

// ErrUnsupported is the errors.Is target for request combinations the
// interface genuinely cannot satisfy. The accompanying *PlanError
// carries the reason.
var ErrUnsupported = errors.New("core: unsupported request")

// PlanError reports why a Request cannot be compiled for an interface.
// It matches ErrUnsupported under errors.Is.
type PlanError struct {
	// Reason is the human-readable explanation.
	Reason string
}

func (e *PlanError) Error() string { return "core: cannot plan request: " + e.Reason }

// Unwrap makes every plan error match ErrUnsupported.
func (e *PlanError) Unwrap() error { return ErrUnsupported }

func planErrf(format string, args ...any) error {
	return &PlanError{Reason: fmt.Sprintf(format, args...)}
}

// QueryPlan is a compiled Request: the concrete algorithm the planner
// selected for the interface, ready to execute. Plans are cheap (no
// queries are issued until Run) and single-use state-free except for a
// resumable plan's Session.
type QueryPlan struct {
	// Algo is the resolved concrete algorithm (never AlgoAuto).
	Algo Algo
	// Band is the K-skyband level the run discovers (0: plain skyline).
	Band int
	// Filter is the conjunctive filter every issued query will carry.
	Filter query.Q
	// Resumable marks the checkpointed SQ session walk.
	Resumable bool

	db      Interface // filter view already applied
	session *Session
}

// Session returns the checkpoint a resumable plan runs (creating it on
// first use), or nil for non-resumable plans. Install OnCheckpoint
// hooks here before Run; serialize it after. A fresh session is rooted
// at the plan's view — the filter-shrunk domains for filtered plans,
// so the walk never explores outside the filter box — and stamped with
// the plan's filter so a later resume under a different one is caught.
func (p *QueryPlan) Session() *Session {
	if !p.Resumable {
		return nil
	}
	if p.session == nil {
		p.session = NewSession(p.db)
		p.session.Filter = filterKey(p.Filter)
	}
	return p.session
}

// filterKey canonicalizes a filter for checkpoint pinning ("" when
// unfiltered, so pre-planner checkpoints keep resuming). Predicates
// are sorted so a reordered but identical filter pins the same key.
func filterKey(q query.Q) string {
	if len(q) == 0 {
		return ""
	}
	sorted := q.Clone()
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Value < b.Value
	})
	return sorted.String()
}

// String renders the plan compactly ("rq band=3 filter=A0<5") for logs
// and error messages.
func (p *QueryPlan) String() string {
	var b strings.Builder
	b.WriteString(string(p.Algo))
	if p.Band > 0 {
		fmt.Fprintf(&b, " band=%d", p.Band)
	}
	if len(p.Filter) > 0 {
		fmt.Fprintf(&b, " filter=%s", p.Filter)
	}
	if p.Resumable {
		b.WriteString(" resumable")
	}
	return b.String()
}

// Plan compiles a Request against an interface: it validates the
// filter against the per-attribute capabilities, resolves AlgoAuto
// from the capability mixture, checks the band / resumable constraints,
// and returns the executable plan. Unsatisfiable combinations return a
// *PlanError (errors.Is ErrUnsupported); no query is issued.
func Plan(db Interface, req Request) (*QueryPlan, error) {
	algo, err := ParseAlgo(string(req.Algo))
	if err != nil {
		return nil, err
	}
	if req.Band < 0 {
		return nil, fmt.Errorf("core: band level must be >= 0, got %d", req.Band)
	}
	if req.Session != nil && !req.Resumable {
		// Refuse rather than silently restart from scratch: a caller
		// handing over a checkpoint means to continue it.
		return nil, planErrf("a session checkpoint requires Resumable: true")
	}
	m := db.NumAttrs()
	for _, p := range req.Filter {
		if p.Attr < 0 || p.Attr >= m {
			return nil, planErrf("filter attribute A%d out of range (database has %d attributes)", p.Attr, m)
		}
		if !db.Cap(p.Attr).Allows(p.Op) {
			return nil, planErrf("filter predicate %v not supported by the %s interface of A%d",
				p, db.Cap(p.Attr), p.Attr)
		}
	}

	view := db
	if len(req.Filter) > 0 {
		view = &filteredView{db: db, filter: req.Filter.Clone()}
	}
	if err := checkDomains(view); err != nil {
		return nil, err
	}

	sqA, rqA, pqA := attrsByCap(db)
	oneEnded := func() (int, bool) { // every attribute supports "<"?
		for i := 0; i < m; i++ {
			if !db.Cap(i).Allows(query.LT) {
				return i, false
			}
		}
		return 0, true
	}

	switch {
	case req.Resumable:
		if req.Band > 0 {
			return nil, planErrf("a session keeps only the skyline, and K-skyband counting needs every discovered tuple")
		}
		if algo != AlgoAuto && algo != AlgoSQ {
			return nil, planErrf("resumable runs use the checkpointable SQ session walk; algo %q is not resumable", algo)
		}
		if i, ok := oneEnded(); !ok {
			return nil, planErrf("the SQ session walk needs one-ended ranges on every attribute; A%d is %s", i, db.Cap(i))
		}
		algo = AlgoSQ
		if req.Session != nil {
			if req.Session.Attrs != m {
				return nil, fmt.Errorf("core: session has %d attributes, database %d", req.Session.Attrs, m)
			}
			if req.Session.Filter != filterKey(req.Filter) {
				return nil, planErrf("session was checkpointed with filter %q, this request carries %q — resume with the same filter",
					req.Session.Filter, filterKey(req.Filter))
			}
		}
	case req.Band > 0:
		switch algo {
		case AlgoMQ:
			return nil, planErrf("MQ-DB-SKY has no K-skyband variant")
		case AlgoAuto:
			switch {
			case len(sqA) == 0 && len(pqA) == 0:
				algo = AlgoRQ
			case len(sqA) == 0 && len(rqA) == 0:
				algo = AlgoPQ
			case len(pqA) == 0:
				algo = AlgoSQ // SQ/RQ mixture: the partial one-ended band walk
			default:
				return nil, planErrf("mixed point/range interfaces have no K-skyband algorithm")
			}
		case AlgoRQ:
			if len(sqA)+len(pqA) > 0 {
				return nil, planErrf("the RQ K-skyband needs two-ended ranges on every attribute")
			}
		case AlgoPQ:
			if len(sqA)+len(rqA) > 0 {
				return nil, planErrf("the PQ K-skyband needs point predicates on every attribute")
			}
		case AlgoSQ:
			if i, ok := oneEnded(); !ok {
				return nil, planErrf("the SQ K-skyband needs one-ended ranges on every attribute; A%d is %s", i, db.Cap(i))
			}
		}
	default:
		switch algo {
		case AlgoAuto: // MQ-DB-SKY's dispatch, resolved at plan time
			switch {
			case len(pqA) == 0 && len(rqA) == 0:
				algo = AlgoSQ
			case len(pqA) == 0:
				algo = AlgoRQ
			case len(sqA) == 0 && len(rqA) == 0:
				algo = AlgoPQ
			default:
				algo = AlgoMQ
			}
		case AlgoSQ, AlgoRQ:
			// Both walks are range-tree traversals; a point-only
			// attribute cannot express their "<" node bounds.
			if i, ok := oneEnded(); !ok {
				return nil, planErrf("%s-DB-SKY needs one-ended ranges on every attribute; A%d is %s",
					strings.ToUpper(string(algo)), i, db.Cap(i))
			}
		case AlgoPQ, AlgoMQ: // point queries run on every capability
		}
	}

	return &QueryPlan{
		Algo:      algo,
		Band:      req.Band,
		Filter:    req.Filter.Clone(),
		Resumable: req.Resumable,
		db:        view,
		session:   req.Session,
	}, nil
}

// checkDomains rejects a database whose domain on some attribute ends at
// MaxInt. The range walks bound an unconstrained node by Hi+1 and the
// point walks step values up to Hi, and neither can pass MaxInt.
func checkDomains(db Interface) error {
	for a := 0; a < db.NumAttrs(); a++ {
		if db.Domain(a).Hi == math.MaxInt {
			return planErrf("the domain of A%d ends at MaxInt, which the walks cannot bound", a)
		}
	}
	return nil
}

// Run executes the compiled plan under the given execution options and
// returns the unified Result (Band and BandCounts populated for band
// plans). It owns the budget / progress / trace / checkpoint plumbing:
// every path reports cost through Result.Queries and degrades to the
// anytime partial result with ErrBudget.
//
// When opt.Tracer is set, the whole execution is recorded as one
// "core.run" span (algorithm, band, final query count and skyline
// size) and every span the layers beneath record — pool tasks, cache
// lookups, upstream queries — hangs under it via opt.TraceParent.
func (p *QueryPlan) Run(opt Options) (Result, error) {
	if opt.Tracer == nil {
		return p.run(opt)
	}
	sp := opt.Tracer.Start("core.run", opt.TraceParent)
	sp.SetStr("algo", string(p.Algo))
	if p.Band > 0 {
		sp.SetInt("band", int64(p.Band))
	}
	if p.Resumable {
		sp.SetStr("mode", "resumable")
	}
	opt.TraceParent = sp.ID()
	res, err := p.run(opt)
	sp.SetInt("queries", int64(res.Queries))
	sp.SetInt("skyline", int64(len(res.Skyline)))
	sp.End()
	return res, err
}

// run is Run without the span envelope.
func (p *QueryPlan) run(opt Options) (Result, error) {
	if p.Resumable {
		return p.Session().Resume(p.db, opt)
	}
	if p.Band > 0 {
		var (
			bres BandResult
			err  error
		)
		switch p.Algo {
		case AlgoRQ:
			bres, err = rqBandSky(p.db, p.Band, opt)
		case AlgoPQ:
			bres, err = pqBandSky(p.db, p.Band, opt)
		default: // AlgoSQ (Plan admits no other band algorithm)
			bres, err = sqBandSky(p.db, p.Band, opt)
		}
		return Result{
			Skyline:    bres.Tuples,
			Queries:    bres.Queries,
			Complete:   bres.Complete,
			Band:       p.Band,
			BandCounts: bres.Counts,
		}, err
	}
	switch p.Algo {
	case AlgoSQ:
		return sqDBSky(p.db, opt)
	case AlgoRQ:
		return rqDBSky(p.db, opt)
	case AlgoPQ:
		return pqDBSky(p.db, opt)
	default: // AlgoMQ
		return mqDBSky(p.db, opt)
	}
}

// Run compiles req against db and executes it — the single entry point
// every layer above core (service, federate, the CLIs, the facade)
// dispatches through. Unsupported combinations fail fast with a typed
// error; supported ones compose freely (filtered band discovery,
// filtered explicit-algorithm runs, filtered resumable sessions).
func Run(db Interface, req Request, opt Options) (Result, error) {
	planSpan := opt.Tracer.Start("core.plan", opt.TraceParent)
	p, err := Plan(db, req)
	if err != nil {
		planSpan.Rename("core.plan_error")
		planSpan.End()
		return Result{}, err
	}
	if opt.Tracer != nil {
		// p.String() allocates; build the attr only on traced runs.
		planSpan.SetStr("plan", p.String())
	}
	planSpan.End()
	return p.Run(opt)
}
