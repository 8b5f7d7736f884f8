package main

import (
	"fmt"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
)

// discover_local: the paper's algorithms and cost with no wire. Each round
// runs five discoveries with core.Run at parallelism 1 directly on
// hidden.DB, through one fresh query cache shared by the round so that
// same-store requests can hit:
//
//	RQ skyline and RQ K=2 band   BlueNile-shaped store (two-ended ranges)
//	SQ skyline                   4-d Independent store (one-ended ranges)
//	PQ skyline                   small-domain anti-correlated store (points)
//	auto (MQ) skyline            Flights store (mixed RQ/PQ attributes)
//
// The stack per store is core.Run -> qcache -> hidden.DB; the benchmark
// decorates the qcache view and the hidden.DB to time each layer.

const topK = 10

// subSeed derives the seed of one generated input from the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

type localStore struct {
	db   *hidden.DB
	rows [][]int
	hid  *ifaceLayer // decorates db: the hidden layer
}

type localRequest struct {
	name  string
	store *localStore
	req   core.Request
	want  expected // filled by expect
}

type localEnv struct {
	stores []*localStore
	reqs   []localRequest
	stack  callStack
	lat    sink    // hidden-layer answer latencies (every run)
	hits   float64 // the last round's cache hit ratio
}

func runDiscoverLocal(cfg config) (result, error) {
	return runRounds(cfg, func() (roundEnv, error) { return buildLocal(cfg.seed) })
}

func buildLocal(seed int64) (*localEnv, error) {
	env := &localEnv{}
	store := func(ds datagen.Dataset) *localStore {
		ds = distinct(ds)
		db, err := hidden.New(ds.Config(topK, nil))
		if err != nil {
			panic(err) // generated datasets are valid by construction
		}
		s := &localStore{db: db, rows: ds.Data}
		s.hid = &ifaceLayer{Interface: db, name: "hidden.query", stack: &env.stack, lat: &env.lat}
		env.stores = append(env.stores, s)
		return s
	}
	bn := store(datagen.BlueNile(subSeed(seed, 0), 800))
	ind := store(datagen.Independent(subSeed(seed, 1), 1000, 4, 1000).WithCaps(hidden.SQ))
	anti := store(datagen.AntiCorrelated(subSeed(seed, 2), 5000, 4, 10).WithCaps(hidden.PQ))
	fl := store(datagen.Flights(subSeed(seed, 3), 250))
	env.reqs = []localRequest{
		{name: "rq", store: bn, req: core.Request{Algo: core.AlgoRQ}},
		{name: "rq_band2", store: bn, req: core.Request{Algo: core.AlgoRQ, Band: 2}},
		{name: "sq", store: ind, req: core.Request{Algo: core.AlgoSQ}},
		{name: "pq", store: anti, req: core.Request{Algo: core.AlgoPQ}},
		{name: "auto", store: fl, req: core.Request{Algo: core.AlgoAuto}},
	}
	return env, nil
}

func (e *localEnv) close() {}

func (e *localEnv) expect() error {
	for i := range e.reqs {
		q := &e.reqs[i]
		q.want = groundTruth(q.store.rows, q.req.Band)
	}
	return nil
}

func (e *localEnv) release() {
	for i := range e.reqs {
		e.reqs[i].want = expected{}
	}
	for _, s := range e.stores {
		s.rows = nil
	}
}

// localSampleEvery times one hidden-layer answer in this many: plenty of
// samples for p99, and the clock reads stay off most ~1µs queries.
const localSampleEvery = 16

func (e *localEnv) startPhase(seconds float64) {
	e.lat.every = localSampleEvery
	e.lat.reset(phaseCapacity(seconds, 250_000/localSampleEvery))
}

func (e *localEnv) latencies() (samples, int) { return e.lat.take() }

func (e *localEnv) round(r int64, tr *tracer) roundOut {
	for _, s := range e.stores {
		s.hid.tr = tr
	}
	cache := qcache.New(qcache.Config{})
	views := make(map[*localStore]core.Interface, len(e.stores))
	for _, s := range e.stores {
		views[s] = &ifaceLayer{Interface: cache.Wrap(s.hid), name: "qcache.lookup", tr: tr, stack: &e.stack}
	}
	results := make([]core.Result, len(e.reqs))
	errs := make([]error, len(e.reqs))
	e.stack.op = r
	start := time.Now()
	for i, q := range e.reqs {
		id, t0 := tr.begin()
		e.stack.parent = id
		results[i], errs[i] = core.Run(views[q.store], q.req, core.Options{})
		e.stack.parent = 0
		tr.end("core.run", id, 0, r, t0)
	}
	out := roundOut{wall: time.Since(start), requests: len(e.reqs)}
	e.hits = cache.Stats().DedupRatio()
	for i, q := range e.reqs {
		res, err := results[i], errs[i]
		out.queries += res.Queries
		if err == nil {
			err = q.want.check(res.Skyline, res.BandCounts, res.Complete)
		}
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", q.name, err))
		}
	}
	return out
}

func (e *localEnv) layers(x *spanIndex, m metrics, rounds int) {
	n := float64(rounds)
	m.setLayer("core.self_ms", ms(x.self("core.run"))/n)
	m.setLayer("qcache.self_ms", ms(x.self("qcache.lookup"))/n)
	m.setLayer("hidden.busy_ms", ms(x.busy("hidden.query"))/n)
	m.setLayer("hidden.queries", float64(len(x.named("hidden.query")))/n)
	m.setLayer("hidden.query_us_p50", us(x.durations("hidden.query").median()))
	m.setLayer("qcache.hit_ratio", e.hits)
}
