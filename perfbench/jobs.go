package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/chaos"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/retry"
	"hiddensky/internal/service"
	"hiddensky/internal/web"
)

// discover_http: skylined-shaped jobs over a real loopback socket. Each
// round builds a service.Manager (snapshot directory on, one job at a
// time) whose stores are web.Clients talking to web.Servers, and submits
// three jobs:
//
//	RQ skyline at parallelism 1         BlueNile-shaped store
//	SQ skyline at parallelism 2         dense small-domain anti-correlated store
//	resumable SQ skyline, checkpointed  same store
//
// RQ carries about four fifths of a round. Its query count on this store
// is the steadiest of the three jobs' from seed to seed; SQ's swings with
// the data (a 4-d Independent store's count varies several-fold, a dense
// anti-correlated one's by ten to twenty percent). Stores that gave the
// SQ jobs a comparable share made the round time swing with the seed
// (larger SQ counts), or made the slowest attempts do so (a few broad
// queries over thousands of rows costing hundreds of microseconds each).
//
// SQ's parallel walk is schedule-independent, so its query count stays
// exact. Jobs bypass the manager's shared cache, which would turn every
// round after the first into hits. A counter-scheduled chaos profile
// (transient 503s and connection resets, no Retry-After stalls) sits in
// front of both servers and restarts with every round, and the clients
// retry with a fixed, jitter-free policy, so every round injects and
// absorbs the same faults.

// jobsChaos is the round's fault schedule.
var jobsChaos = chaos.Profile{Name: "perfbench", ErrorEvery: 50, ResetEvery: 100}

// jobsRetry is the clients' retry policy: a few-ms exponential backoff
// with no jitter.
var jobsRetry = retry.Policy{Attempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond,
	Multiplier: 2, NoJitter: true}

type jobsStore struct {
	name   string
	db     *hidden.DB
	rows   [][]int
	client *web.Client
	want   expected // filled by expect
	srv    *http.Server
	chaos  atomic.Pointer[http.Handler] // this round's injector in front of handler
	inner  *handlerLayer                // times web.Server
}

func (s *jobsStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.chaos.Load()).ServeHTTP(w, r)
}

type jobsEnv struct {
	dir    string
	stores []*jobsStore
	rt     *roundTripper
	specs  []service.JobSpec
	want   []int // per-job query counts of the first round

	// traced rounds only
	jobs     []service.JobStatus
	observed []time.Time // when each job's terminal status arrived
	served   int
	builds   time.Duration
	spans    *tracer
}

func runDiscoverHTTP(cfg config) (result, error) {
	return runRounds(cfg, func() (roundEnv, error) { return buildJobs(cfg) })
}

func buildJobs(cfg config) (*jobsEnv, error) {
	env := &jobsEnv{dir: cfg.workdir, rt: newRoundTripper()}
	hc := &http.Client{Transport: env.rt}
	add := func(name string, ds datagen.Dataset) error {
		ds = distinct(ds)
		db, err := hidden.New(ds.Config(topK, nil))
		if err != nil {
			return err
		}
		s := &jobsStore{name: name, db: db, rows: ds.Data}
		s.inner = &handlerLayer{next: web.NewServer(db, nil), name: "web.handler"}
		var h http.Handler = s.inner
		s.chaos.Store(&h)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.srv = &http.Server{Handler: s, ErrorLog: log.New(io.Discard, "", 0)}
		go s.srv.Serve(ln)
		env.stores = append(env.stores, s)
		if s.client, err = web.Dial("http://"+ln.Addr().String(), hc); err != nil {
			return err
		}
		s.client.SetRetryPolicy(jobsRetry)
		return nil
	}
	if err := add("bluenile", datagen.BlueNile(subSeed(cfg.seed, 10), 2000)); err != nil {
		env.close()
		return nil, err
	}
	if err := add("anticorrelated", datagen.AntiCorrelated(subSeed(cfg.seed, 11), 50000, 3, 10).WithCaps(hidden.SQ)); err != nil {
		env.close()
		return nil, err
	}
	env.specs = []service.JobSpec{
		{Store: "bluenile", Algo: "rq", Parallelism: 1},
		{Store: "anticorrelated", Algo: "sq", Parallelism: 2},
		{Store: "anticorrelated", Resumable: true, CheckpointEvery: 25},
	}
	return env, nil
}

func (e *jobsEnv) close() {
	for _, s := range e.stores {
		s.srv.Close()
	}
	e.rt.next.(*http.Transport).CloseIdleConnections()
}

func (e *jobsEnv) expect() error {
	for _, s := range e.stores {
		s.want = groundTruth(s.rows, 0)
	}
	return nil
}

func (e *jobsEnv) release() {
	for _, s := range e.stores {
		s.rows, s.want = nil, expected{}
	}
}

func (e *jobsEnv) startPhase(seconds float64) {
	e.rt.mu.Lock()
	e.rt.lat = &sink{}
	e.rt.lat.reset(phaseCapacity(seconds, 8000))
	e.rt.mu.Unlock()
}

func (e *jobsEnv) latencies() (samples, int) {
	e.rt.mu.Lock()
	defer e.rt.mu.Unlock()
	return e.rt.lat.take()
}

func (e *jobsEnv) storeOf(name string) *jobsStore {
	for _, s := range e.stores {
		if s.name == name {
			return s
		}
	}
	return nil
}

func (e *jobsEnv) round(r int64, tr *tracer) roundOut {
	out := roundOut{requests: len(e.specs)}
	fail := func(format string, args ...any) {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	in := chaos.New(jobsChaos)
	for _, s := range e.stores {
		h := in.Middleware(s.inner)
		s.chaos.Store(&h)
		s.inner.tr = tr
	}
	e.rt.tr = tr
	attempts0, ok0 := e.rt.attempts.Load(), e.rt.ok.Load()
	served0 := 0
	for _, s := range e.stores {
		served0 += s.db.QueriesIssued()
	}
	dir := filepath.Join(e.dir, fmt.Sprintf("round-%d", r))
	m, err := service.NewManager(service.Config{MaxConcurrent: 1, SnapshotDir: dir, BreakerThreshold: -1})
	if err != nil {
		fail("manager: %v", err)
		return out
	}
	defer os.RemoveAll(dir)
	for _, s := range e.stores {
		if err := m.AddStore(s.name, s.client); err != nil {
			fail("add store: %v", err)
			return out
		}
	}

	rid, rstart := tr.begin()
	e.rt.parent.Store(rid)
	e.rt.op.Store(r)
	start := time.Now()
	type watched struct {
		id   string
		ch   <-chan service.JobStatus
		stop func()
	}
	var ws []watched
	for _, spec := range e.specs {
		st, err := m.Submit(spec)
		if err != nil {
			fail("submit %+v: %v", spec, err)
			continue
		}
		ch, stop, err := m.Watch(st.ID)
		if err != nil {
			fail("watch %s: %v", st.ID, err)
			continue
		}
		ws = append(ws, watched{st.ID, ch, stop})
	}
	observed := make([]time.Time, len(ws))
	for i, w := range ws {
		for range w.ch {
		}
		observed[i] = time.Now()
		w.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = m.Close(ctx)
	cancel()
	out.wall = time.Since(start)
	tr.end("round", rid, 0, r, rstart)
	if err != nil {
		fail("close manager: %v", err)
	}

	if len(e.want) == 0 {
		e.want = make([]int, len(ws))
	}
	var jobs []service.JobStatus
	for i, w := range ws {
		st, _ := m.Get(w.id)
		jobs = append(jobs, st)
		out.queries += st.Queries
		if st.State != service.StateDone || st.Error != "" {
			fail("job %s (%+v) ended %s: %s", st.ID, st.Spec, st.State, st.Error)
			continue
		}
		if err := e.storeOf(st.Spec.Store).want.check(st.Tuples, nil, st.Complete); err != nil {
			fail("job %s (%+v): %v", st.ID, st.Spec, err)
		}
		if e.want[i] == 0 {
			e.want[i] = st.Queries
		} else if st.Queries != e.want[i] {
			fail("job %s (%+v) issued %d queries, the first round %d", st.ID, st.Spec, st.Queries, e.want[i])
		}
	}
	served := -served0
	for _, s := range e.stores {
		served += s.db.QueriesIssued()
	}
	attempts, ok := e.rt.attempts.Load()-attempts0, e.rt.ok.Load()-ok0
	injected := in.Count(chaos.KindServerError) + in.Count(chaos.KindReset)
	sched := jobsChaos.ScheduledCounts(in.Attempts())
	switch {
	case served != out.queries:
		fail("stores served %d queries, jobs counted %d", served, out.queries)
	case ok != int64(out.queries):
		fail("%d successful attempts for %d counted queries", ok, out.queries)
	case attempts-ok != injected:
		fail("%d failed attempts, %d faults injected", attempts-ok, injected)
	case injected != sched[chaos.KindServerError]+sched[chaos.KindReset]:
		fail("injected %v, schedule says %v", in.Counts(), sched)
	}
	if tr != nil {
		e.spans = tr
		e.jobs = append(e.jobs, jobs...)
		e.observed = append(e.observed, observed...)
		e.served += served
		for _, st := range jobs {
			t0 := time.Now()
			if _, err := answer.Build(st.Tuples, answer.Options{BandK: 1}); err != nil {
				fail("answer build: %v", err)
			}
			e.builds += time.Since(t0)
		}
	}
	return out
}

func (e *jobsEnv) layers(x *spanIndex, m metrics, rounds int) {
	n := float64(rounds)
	okSpans := x.named(rttSpan)
	failed := x.named(rttFailedSpan)
	all := append(append([]span(nil), okSpans...), failed...)
	var client, wire time.Duration
	for _, s := range all {
		client += s.dur()
	}
	for _, s := range okSpans {
		wire += s.dur() - x.covered(s)
	}
	m.setLayer("hidden.queries", float64(e.served)/n)
	m.setLayer("web.client_ms", ms(client)/n)
	m.setLayer("web.rtt_us_p50", us(x.durations(rttSpan).median()))
	m.setLayer("web.handler_us_p50", us(x.durations("web.handler").median()))
	m.setLayer("web.wire_ms", ms(wire)/n)
	m.setLayer("web.attempts_per_query", ratio(float64(len(all)), float64(len(okSpans))))
	m.setLayer("retry.retries", float64(len(failed))/n)
	m.setLayer("retry.backoff_ms", ms(e.rt.backoff)/n)
	m.setLayer("answer.build_ms", ms(e.builds)/n)

	var queue, startup, finish time.Duration
	var overlap []float64
	for i, st := range e.jobs {
		queue += st.StartedAt.Sub(st.SubmittedAt)
		lo, hi := e.spans.at(st.StartedAt), e.spans.at(st.FinishedAt)
		first, last := int64(-1), int64(-1)
		var busy time.Duration
		for _, s := range all {
			if s.Start >= lo && s.End <= hi {
				if first < 0 || s.Start < first {
					first = s.Start
				}
				last = max(last, s.End)
				busy += s.dur()
			}
		}
		if first < 0 {
			continue
		}
		startup += time.Duration(first - lo)
		finish += time.Duration(e.spans.at(e.observed[i]) - last)
		if st.Spec.Parallelism > 1 {
			overlap = append(overlap, float64(busy)/float64(last-first))
		}
	}
	m.setLayer("service.queue_ms", ms(queue)/n)
	m.setLayer("service.start_ms", ms(startup)/n)
	m.setLayer("service.finish_ms", ms(finish)/n)
	if len(overlap) > 0 {
		sum := 0.0
		for _, v := range overlap {
			sum += v
		}
		m.setLayer("engine.overlap", sum/float64(len(overlap)))
	}
}
