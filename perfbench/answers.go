package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/service"
)

// answer_http: the read path. Setup discovers the K=2 skyband of a local
// store through a service.Manager with a snapshot directory, then a fresh
// Manager recovers the binary answer index (timed) and serves it over a
// loopback socket. Two closed-loop clients — callers that each wait for
// their reply — send a seeded stream of top-k requests through
// service.Client.AnswerTopK: random non-negative weights, K <= the band,
// about a quarter carrying a one- or two-attribute range filter (the
// gather path), the rest unfiltered (the exact arena path). A round is a
// block of answerRound completed requests.

const (
	answerBand    = 2
	answerStream  = 4096 // distinct requests, replayed in order
	answerClients = 2    // at most nproc client goroutines
	answerRound   = 200  // completed requests per round
	answerWarmup  = 1000
	// answerMinSamples keeps ten requests beyond answer_p99_us in every
	// window, and ten rounds beyond round_p90_ms.
	answerMinSamples = 100 * answerRound
	// answerTraced bounds the traced phase's requests.
	answerTraced = 20000
	// answerRate bounds the expected completions per second, sizing the
	// phase's sample buffers.
	answerRate = 25000
)

type answerEnv struct {
	dir     string
	db      *hidden.DB
	m       *service.Manager
	store   *answer.Store
	srv     *http.Server
	clients [answerClients]*service.Client
	rts     [answerClients]*roundTripper
	handler *handlerLayer
	rows    [][]int // the store's rows
	band    [][]int // the setup band job's tuples
	reqs    []service.AnswerTopKRequest
	want    []answer.TopKResult // filled by expect
	queries int                 // the band job's queries
	recover time.Duration
}

func (e *answerEnv) close() {
	if e.srv != nil {
		e.srv.Close()
	}
	for _, rt := range e.rts {
		if rt != nil {
			rt.next.(*http.Transport).CloseIdleConnections()
		}
	}
	if e.m != nil {
		e.m.Close(context.Background())
	}
	os.RemoveAll(e.dir)
}

func buildAnswers(cfg config) (*answerEnv, error) {
	e := &answerEnv{}
	fail := func(err error) (*answerEnv, error) {
		e.close()
		return nil, err
	}
	var err error
	if e.dir, err = os.MkdirTemp(cfg.workdir, "answers-"); err != nil {
		return nil, err
	}
	ds := distinct(datagen.BlueNile(subSeed(cfg.seed, 20), 1000))
	db, err := hidden.New(ds.Config(topK, nil))
	if err != nil {
		return fail(err)
	}
	e.db = db
	const name = "store"
	mcfg := service.Config{MaxConcurrent: 1, SnapshotDir: e.dir}

	// Discover the band and let the manager publish and persist it.
	m1, err := service.NewManager(mcfg)
	if err != nil {
		return fail(err)
	}
	defer m1.Close(context.Background())
	if err := m1.AddStore(name, db); err != nil {
		return fail(err)
	}
	st, err := m1.Submit(service.JobSpec{Store: name, Algo: "rq", Band: answerBand})
	if err != nil {
		return fail(err)
	}
	ch, stop, err := m1.Watch(st.ID)
	if err != nil {
		return fail(err)
	}
	for range ch {
	}
	stop()
	if err := m1.Close(context.Background()); err != nil {
		return fail(err)
	}
	st, _ = m1.Get(st.ID)
	if st.State != service.StateDone || !st.Complete {
		return fail(fmt.Errorf("band job ended %s: %s", st.State, st.Error))
	}
	e.rows, e.band, e.queries = ds.Data, st.Tuples, st.Queries

	// A fresh manager recovers the index from the snapshot directory.
	if e.m, err = service.NewManager(mcfg); err != nil {
		return fail(err)
	}
	if err := e.m.AddStore(name, db); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	if _, err := e.m.Recover(); err != nil {
		return fail(err)
	}
	e.recover = time.Since(t0)
	if e.store, err = e.m.AnswerStore(name); err != nil {
		return fail(err)
	}

	e.reqs = answerRequests(cfg.seed, name, ds)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.handler = &handlerLayer{next: service.NewHandler(e.m), name: "service.handler"}
	e.srv = &http.Server{Handler: e.handler, ErrorLog: log.New(io.Discard, "", 0)}
	go e.srv.Serve(ln)
	for i := range e.clients {
		e.rts[i] = newRoundTripper()
		if e.clients[i], err = service.Dial("http://"+ln.Addr().String(), &http.Client{Transport: e.rts[i]}); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// expect checks the setup band job against the ground-truth band and
// computes the reference answer of every request, checking each
// unfiltered one against brute force.
func (e *answerEnv) expect() error {
	if err := groundTruth(e.rows, answerBand).checkMembers(e.band); err != nil {
		return fmt.Errorf("band job: %w", err)
	}
	e.want = make([]answer.TopKResult, len(e.reqs))
	for i, r := range e.reqs {
		var err error
		if e.want[i], err = e.store.ReferenceTopK(topkQuery(r)); err != nil {
			return err
		}
		if len(r.Filter) == 0 {
			if err := bruteForce(e.rows, r, e.want[i]); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	return nil
}

func (e *answerEnv) release() { e.rows, e.band, e.reqs, e.want = nil, nil, nil, nil }

// answerRequests generates the seeded request stream.
func answerRequests(seed int64, store string, ds datagen.Dataset) []service.AnswerTopKRequest {
	rng := rand.New(rand.NewSource(subSeed(seed, 21)))
	m := len(ds.Attrs)
	lo, hi := make([]int, m), make([]int, m)
	for a := range lo {
		lo[a], hi[a] = math.MaxInt, math.MinInt
		for _, t := range ds.Data {
			lo[a], hi[a] = min(lo[a], t[a]), max(hi[a], t[a])
		}
	}
	reqs := make([]service.AnswerTopKRequest, answerStream)
	for i := range reqs {
		w := make([]float64, m)
		for a := range w {
			w[a] = rng.Float64()
		}
		r := service.AnswerTopKRequest{Store: store, Weights: w, K: 1 + rng.Intn(answerBand)}
		if rng.Intn(4) == 0 {
			for _, a := range rng.Perm(m)[:1+rng.Intn(2)] {
				span := hi[a] - lo[a]
				l := lo[a] + rng.Intn(span/2+1)
				h := l + span/2
				r.Filter = append(r.Filter, service.AnswerRange{Attr: a, Lo: &l, Hi: &h})
			}
		}
		reqs[i] = r
	}
	return reqs
}

// topkQuery is the answer-store form of a wire request.
func topkQuery(r service.AnswerTopKRequest) answer.TopKQuery {
	q := answer.TopKQuery{Weights: r.Weights, K: r.K, Normalized: r.Normalized}
	for _, f := range r.Filter {
		q.Filter = append(q.Filter, answer.Range{Attr: f.Attr, Lo: *f.Lo, Hi: *f.Hi})
	}
	return q
}

// bruteForce checks an unfiltered answer (K <= band) against the K best
// scores over every row of the store.
func bruteForce(rows [][]int, r service.AnswerTopKRequest, got answer.TopKResult) error {
	if len(got.Items) != r.K || !got.Exact {
		return fmt.Errorf("reference answered %d items (exact %v) for k=%d", len(got.Items), got.Exact, r.K)
	}
	best := make([]float64, 0, r.K+1) // ascending
	for _, t := range rows {
		s := 0.0
		for a, w := range r.Weights {
			s += w * float64(t[a])
		}
		if len(best) == r.K && s >= best[r.K-1] {
			continue
		}
		i := sort.SearchFloat64s(best, s)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = s
		best = best[:min(len(best), r.K)]
	}
	for i, it := range got.Items {
		if math.Abs(it.Score-best[i]) > 1e-9*math.Max(1, math.Abs(best[i])) {
			return fmt.Errorf("rank %d: score %v, brute force %v", i, it.Score, best[i])
		}
	}
	return nil
}

// matches reports whether a served answer equals the reference answer.
func matches(resp service.AnswerTopKResponse, want answer.TopKResult) bool {
	if len(resp.Tuples) != len(want.Items) || len(resp.Scores) != len(want.Items) || resp.Exact != want.Exact {
		return false
	}
	for i, it := range want.Items {
		if resp.Scores[i] != it.Score || tupleKey(resp.Tuples[i]) != tupleKey(it.Tuple) {
			return false
		}
	}
	return true
}

// loadPhase is one closed-loop stretch of requests.
type loadPhase struct {
	lat      samples   // every request, both clients
	windows  []samples // request latencies by window (chunk i of each client)
	rounds   samples
	requests int
	failed   int64
	wall     time.Duration
}

// load runs the closed loop until seconds have passed and at least min
// requests completed, or until max requests (when positive). Latencies go
// to buffers sized up front, and a round ends at every answerRound-th
// completion.
func (e *answerEnv) load(seconds float64, min, max int, next *atomic.Int64, tr *tracer) loadPhase {
	var stop atomic.Bool
	var done, failed atomic.Int64
	var wg sync.WaitGroup
	lats := make([]samples, answerClients)
	var mu sync.Mutex
	ends := make([]time.Duration, 0, phaseCapacity(seconds, answerRate/answerRound))
	start := time.Now()
	for c := 0; c < answerClients; c++ {
		lats[c] = make(samples, 0, phaseCapacity(seconds, answerRate/answerClients))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, rt := e.clients[c], e.rts[c]
			rt.tr = tr
			for !stop.Load() {
				i := next.Add(1) - 1
				r := i % int64(len(e.reqs))
				id, s0 := tr.begin()
				rt.parent.Store(id)
				rt.op.Store(i)
				t0 := time.Now()
				resp, err := client.AnswerTopK(e.reqs[r])
				d := time.Since(t0)
				tr.end("client.answer", id, 0, i, s0)
				lats[c].add(d)
				n := done.Add(1)
				if n%answerRound == 0 {
					end := time.Since(start)
					mu.Lock()
					ends = append(ends, end)
					mu.Unlock()
				}
				if err != nil || !matches(resp, e.want[r]) {
					if failed.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: request %d: answer differs from the reference (err %v)\n", r, err)
					}
				}
				if max > 0 && n >= int64(max) {
					stop.Store(true)
				}
			}
		}(c)
	}
	limit := time.Duration(seconds * float64(time.Second))
	for !stop.Load() {
		el := time.Since(start)
		if (max == 0 && el >= limit && done.Load() >= int64(min)) || el >= hardStop {
			stop.Store(true)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	p := loadPhase{wall: time.Since(start), failed: failed.Load(), windows: make([]samples, windows)}
	for c := range lats {
		p.lat = append(p.lat, lats[c]...)
		for i, w := range lats[c].split(windows) {
			p.windows[i] = append(p.windows[i], w...)
		}
	}
	p.requests = len(p.lat)
	// Two clients may record neighbouring boundaries out of order.
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var prev time.Duration
	for _, end := range ends {
		p.rounds.add(end - prev)
		prev = end
	}
	return p
}

// measure runs the untraced phase and sets its latency figures in m. The
// phase's sample buffers die when it returns.
func (e *answerEnv) measure(m metrics, seconds float64, minSamples, minBeyond int, next *atomic.Int64) (requests int, failed int64, err error) {
	p := e.load(seconds, minSamples, 0, next, nil)
	a50, _ := windowedPercentile(p.windows, 0.5, 0)
	a99, err := windowedPercentile(p.windows, 0.99, minBeyond)
	if err != nil {
		return p.requests, p.failed, fmt.Errorf("answer_p99_us: %w", err)
	}
	r90, err := p.rounds.percentile(0.90, minBeyond)
	if err != nil {
		return p.requests, p.failed, fmt.Errorf("round_p90_ms: %w", err)
	}
	m.setE2E("round_p50_ms", ms(p.rounds.median()))
	m.setE2E("round_p90_ms", ms(r90))
	m.setE2E("answer_qps", float64(p.requests)/p.wall.Seconds())
	m.setE2E("answer_p50_us", us(a50))
	m.setE2E("answer_p99_us", us(a99))
	return p.requests, p.failed, nil
}

func runAnswerHTTP(cfg config) (result, error) {
	var recovers samples
	env, setup, err := timeSetup(cfg, func() (*answerEnv, error) {
		e, err := buildAnswers(cfg)
		if err == nil {
			recovers.add(e.recover)
		}
		return e, err
	})
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer env.close()
	var res result
	var next atomic.Int64
	account := func(p loadPhase) {
		res.Attempted += int64(p.requests)
		res.Failed += p.failed
	}
	minBeyond, minSamples, warm, maxTraced := 10, answerMinSamples, answerWarmup, answerTraced
	if cfg.smoke {
		minBeyond, minSamples, warm, maxTraced = 0, 2*answerRound, 20, 50
	}
	account(env.load(0, 0, warm, &next, nil))
	served0 := env.db.QueriesIssued()
	m := metrics{}
	if !cfg.trace {
		seconds := cfg.seconds
		if cfg.smoke {
			seconds = 0
		}
		requests, failed, err := env.measure(m, seconds, minSamples, minBeyond, &next)
		res.Attempted += int64(requests)
		res.Failed += failed
		if err != nil {
			return result{}, err
		}
		m.setE2E("setup_s", setup.Seconds())
		m.setE2E("queries_issued", float64(env.queries))
		// The phase's sample buffers are out of scope here; drop the
		// reference answers too, so the live heap is the program's.
		env.release()
		m.setE2E("heap_live_mb", liveHeapMB())
	} else {
		half := cfg.seconds / 2
		if cfg.smoke {
			half = 0
		}
		before := readMem()
		plain := env.load(half, minSamples, 0, &next, nil)
		after := readMem()
		account(plain)
		tr := newTracer()
		env.handler.tr = tr
		traced := env.load(half, 1, maxTraced, &next, tr)
		env.handler.tr = nil
		account(traced)
		failed := env.direct(tr)
		res.Attempted += int64(2 * len(env.reqs))
		res.Failed += failed
		m = layerMetrics()
		env.layers(tr.index(), m, traced.requests)
		m.setLayer("answer.recover_ms", ms(recovers.median()))
		t0 := time.Now()
		if _, err := answer.Build(env.band, answer.Options{BandK: answerBand}); err != nil {
			return result{}, err
		}
		m.setLayer("answer.build_ms", ms(time.Since(t0)))
		allocs, bytes, gcs := perOp(before, after, plain.requests)
		m.setLayer("runtime.allocs_per_op", allocs)
		m.setLayer("runtime.alloc_bytes_per_op", bytes)
		m.setLayer("runtime.gc_cycles_per_op", gcs)
		m.setLayer("trace.overhead_ratio", ratio(float64(traced.lat.median()), float64(plain.lat.median())))
		if err := tr.write(cfg.spans); err != nil {
			return result{}, err
		}
	}
	if served := env.db.QueriesIssued() - served0; served != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the measured phase issued %d upstream queries\n", served)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	res.Metrics = m
	return res, nil
}

// direct replays the request stream straight into Manager.AnswerTopK and
// answer.Store.TopK, timing the service and answer layers without the
// wire. It returns how many answers differed from the reference.
func (e *answerEnv) direct(tr *tracer) int64 {
	var failed int64
	for i, r := range e.reqs {
		id, s0 := tr.begin()
		resp, err := e.m.AnswerTopK(r)
		tr.end("service.answer", id, 0, int64(i), s0)
		if err != nil || !matches(resp, e.want[i]) {
			failed++
		}
	}
	for i, r := range e.reqs {
		name := "answer.topk"
		if len(r.Filter) > 0 {
			name = "answer.topk_filtered"
		}
		id, s0 := tr.begin()
		got, err := e.store.TopK(topkQuery(r))
		tr.end(name, id, 0, int64(i), s0)
		if err != nil || len(got.Items) != len(e.want[i].Items) {
			failed++
			continue
		}
		for j, it := range got.Items {
			if it.Score != e.want[i].Items[j].Score || tupleKey(it.Tuple) != tupleKey(e.want[i].Items[j].Tuple) {
				failed++
				break
			}
		}
	}
	return failed
}

func (e *answerEnv) layers(x *spanIndex, m metrics, requests int) {
	n := float64(requests)
	var client, wire time.Duration
	rtts := x.named(rttSpan)
	for _, s := range rtts {
		client += s.dur()
		wire += s.dur() - x.covered(s)
	}
	attempts := len(rtts) + len(x.named(rttFailedSpan))
	m.setLayer("web.client_ms", ms(client)/n)
	m.setLayer("web.rtt_us_p50", us(x.durations(rttSpan).median()))
	m.setLayer("web.wire_ms", ms(wire)/n)
	m.setLayer("web.attempts_per_query", ratio(float64(attempts), float64(len(rtts))))
	m.setLayer("service.handler_us_p50", us(x.durations("service.handler").median()))
	m.setLayer("service.answer_us_p50", us(x.durations("service.answer").median()))
	m.setLayer("answer.topk_us_p50", us(x.durations("answer.topk").median()))
	m.setLayer("answer.topk_filtered_us_p50", us(x.durations("answer.topk_filtered").median()))
}
