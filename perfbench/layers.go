package main

import (
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// The benchmark times each layer from outside, through its public
// boundary: a core.Interface decorator at each level of an in-process
// stack, an http.RoundTripper on the client, and http.Handler middleware
// on the server. Untraced runs keep only the latency samples an
// end-to-end metric needs.

// spanHeader carries the client attempt's span id to the server
// middleware, so the handler span can name its parent. Set on traced
// runs only.
const spanHeader = "X-Perfbench-Span"

// callStack tracks the innermost open span of a sequential in-process
// stack (discovery at parallelism 1 calls each layer from one goroutine).
type callStack struct {
	parent, op int64
}

// ifaceLayer decorates one level of the core.Interface stack.
type ifaceLayer struct {
	core.Interface
	name  string
	tr    *tracer
	stack *callStack
	lat   *sink // per-query latency, kept on every run when set
}

func (l *ifaceLayer) Query(q query.Q) (hidden.Result, error) {
	if l.tr == nil {
		if l.lat == nil || !l.lat.due() {
			return l.Interface.Query(q)
		}
		t0 := time.Now()
		res, err := l.Interface.Query(q)
		l.lat.s.add(time.Since(t0))
		return res, err
	}
	id, start := l.tr.begin()
	parent := l.stack.parent
	l.stack.parent = id
	res, err := l.Interface.Query(q)
	l.stack.parent = parent
	d := l.tr.end(l.name, id, parent, l.stack.op, start)
	if l.lat != nil && l.lat.due() {
		l.lat.s.add(d)
	}
	return res, err
}

// roundTripper times every HTTP attempt a client makes. An attempt ends
// when the caller closes the response body, so its time covers the whole
// exchange. Successful attempts (HTTP 200) feed the latency sink, when
// there is one.
type roundTripper struct {
	next   http.RoundTripper
	tr     *tracer
	parent atomic.Int64 // span the next attempts belong to (traced runs)
	op     atomic.Int64

	attempts, ok atomic.Int64

	mu       sync.Mutex
	lat      *sink
	lastFail map[uint64]int64 // body hash -> end of its failed attempt
	backoff  time.Duration    // waits between a failed attempt and its retry
}

// Attempt span names: an attempt answered 200, and any other outcome.
const (
	rttSpan       = "web.rtt"
	rttFailedSpan = "web.rtt_failed"
)

func newRoundTripper() *roundTripper {
	return &roundTripper{next: http.DefaultTransport.(*http.Transport).Clone(), lastFail: map[uint64]int64{}}
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.attempts.Add(1)
	var id, start int64
	var key uint64
	if rt.tr != nil {
		key = bodyKey(req)
		id, start = rt.tr.begin()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		rt.mu.Lock()
		if end, ok := rt.lastFail[key]; ok {
			rt.backoff += time.Duration(start - end)
			delete(rt.lastFail, key)
		}
		rt.mu.Unlock()
	}
	t0 := time.Now()
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.finish(t0, false, id, start, key)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rt.finish(t0, resp.StatusCode == http.StatusOK, id, start, key)
	}}
	return resp, nil
}

func (rt *roundTripper) finish(t0 time.Time, ok bool, id, start int64, key uint64) {
	d := time.Since(t0)
	name := rttFailedSpan
	if ok {
		rt.ok.Add(1)
		name = rttSpan
	}
	rt.mu.Lock()
	if ok && rt.lat != nil && rt.lat.due() {
		rt.lat.s.add(d)
	}
	if rt.tr != nil && !ok {
		rt.lastFail[key] = rt.tr.at(time.Now())
	}
	rt.mu.Unlock()
	if rt.tr != nil {
		rt.tr.end(name, id, rt.parent.Load(), rt.op.Load(), start)
	}
}

// bodyKey fingerprints a request body, pairing a failed attempt with its
// retry (the client resends the same bytes).
func bodyKey(req *http.Request) uint64 {
	h := fnv.New64a()
	h.Write([]byte(req.URL.Path))
	if req.GetBody != nil {
		if b, err := req.GetBody(); err == nil {
			_, _ = io.Copy(h, b)
			b.Close()
		}
	}
	return h.Sum64()
}

// timedBody reports once when the caller is done with the response.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handlerLayer is server-side middleware recording one span per request;
// its parent is the client attempt named by spanHeader.
type handlerLayer struct {
	next http.Handler
	name string
	tr   *tracer
}

func (h *handlerLayer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id, start := h.tr.begin()
	h.next.ServeHTTP(w, r)
	h.tr.end(h.name, id, parent, 0, start)
}
