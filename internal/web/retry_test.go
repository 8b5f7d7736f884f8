package web

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

// flakyServer answers /v1/meta normally and rate-limits the first
// `limit429` search requests before serving, emulating a transient burst
// limit.
func flakyServer(t *testing.T, db *hidden.DB, limit429 int32) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	inner := NewServer(db, nil)
	var rejected atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", inner.ServeHTTP)
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		if rejected.Add(1) <= limit429 {
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "burst limit"})
			return
		}
		inner.ServeHTTP(w, r)
	})
	return httptest.NewServer(mux), &rejected
}

// TestClientRetriesOnceOn429: one transient 429 is absorbed by a
// backoff-and-retry instead of aborting the discovery mid-run.
func TestClientRetriesOnceOn429(t *testing.T) {
	db := testDB(t, 60, 2, 12, 5, capsAll(2, hidden.RQ), 0)
	srv, _ := flakyServer(t, db, 1)
	defer srv.Close()

	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{BaseBackoff: time.Millisecond, NoJitter: true})
	res, err := c.Query(query.Q{{Attr: 0, Op: query.LT, Value: 9}})
	if err != nil {
		t.Fatalf("a single 429 must be retried away, got %v", err)
	}
	want, _ := db.Query(query.Q{{Attr: 0, Op: query.LT, Value: 9}})
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("retried answer has %d tuples, want %d", len(res.Tuples), len(want.Tuples))
	}
	if c.QueriesIssued() != 1 {
		t.Fatalf("QueriesIssued = %d, want 1 (the rejected attempt does not count)", c.QueriesIssued())
	}
}

// TestClientReturnsTypedErrorOnPersistent429: once the policy's attempts
// are spent the 429 surfaces as *RateLimitError, which errors.Is-matches
// ErrRateLimited (the facade's hiddensky.ErrRateLimited) so discovery
// degrades to its anytime result. The attempt count is policy-exact.
func TestClientReturnsTypedErrorOnPersistent429(t *testing.T) {
	db := testDB(t, 60, 2, 12, 5, capsAll(2, hidden.RQ), 0)
	srv, rejected := flakyServer(t, db, 1<<30)
	defer srv.Close()

	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{Attempts: 3, BaseBackoff: time.Millisecond, NoJitter: true})
	_, err = c.Query(nil)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v (%T), want *RateLimitError", err, err)
	}
	if !errors.Is(err, hidden.ErrRateLimited) {
		t.Fatal("typed error must errors.Is-match ErrRateLimited")
	}
	if rle.Attempts != 3 {
		t.Fatalf("RateLimitError.Attempts = %d, want 3", rle.Attempts)
	}
	if got := rejected.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want exactly the policy's 3", got)
	}
}

// TestClientHonorsRetryAfterHeader: the server's Retry-After is used as
// the backoff and reported in the typed error.
func TestClientHonorsRetryAfterHeader(t *testing.T) {
	var hits atomic.Int32
	mux := http.NewServeMux()
	db := testDB(t, 20, 2, 8, 5, capsAll(2, hidden.RQ), 0)
	inner := NewServer(db, nil)
	mux.HandleFunc("/v1/meta", inner.ServeHTTP)
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{Attempts: 2, BaseBackoff: time.Millisecond, NoJitter: true})
	start := time.Now()
	_, err = c.Query(nil)
	elapsed := time.Since(start)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RateLimitError", err)
	}
	if rle.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s from the header", rle.RetryAfter)
	}
	if elapsed < time.Second {
		t.Fatalf("client waited only %v before retrying, Retry-After said 1s", elapsed)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", hits.Load())
	}
}

// TestClientReportsUnclampedRetryAfter: the typed error carries the
// server's Retry-After as sent; only the policy's RetryAfterCap bounds
// the wait, so a hint above the default cap is not silently shortened.
func TestClientReportsUnclampedRetryAfter(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", metaHandler())
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "8")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{Attempts: 1}) // one try: nothing sleeps
	_, err = c.Query(nil)
	var rle *RateLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want *RateLimitError", err)
	}
	if rle.RetryAfter != 8*time.Second || rle.Attempts != 1 {
		t.Fatalf("RetryAfter = %v, Attempts = %d; want 8s as sent and 1", rle.RetryAfter, rle.Attempts)
	}
}

// TestClientSafeForConcurrentUse: one shared client under a parallel
// discovery run — the scenario Options.Parallelism creates — must be
// race-free with exact query accounting.
func TestClientSafeForConcurrentUse(t *testing.T) {
	db := testDB(t, 400, 3, 30, 5, capsAll(3, hidden.RQ), 0)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()

	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c, core.Request{}, core.Options{Parallelism: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("parallel remote discovery not complete")
	}
	if c.QueriesIssued() != res.Queries {
		t.Fatalf("client counted %d queries, discovery reported %d", c.QueriesIssued(), res.Queries)
	}
	seq, err := core.Run(c, core.Request{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tup := range res.Skyline {
		got[key(tup)] = true
	}
	for _, tup := range seq.Skyline {
		if !got[key(tup)] {
			t.Fatalf("parallel remote skyline misses %v", tup)
		}
	}
	if len(res.Skyline) != len(seq.Skyline) {
		t.Fatalf("parallel remote skyline has %d tuples, sequential %d", len(res.Skyline), len(seq.Skyline))
	}

	// Raw concurrent queries through one client.
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Query(query.Q{{Attr: 0, Op: query.LE, Value: i}}); err != nil {
				t.Errorf("concurrent query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func key(t []int) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

// faultyServer answers /v1/meta normally and runs fail on the first
// `failures` search requests before serving cleanly.
func faultyServer(t *testing.T, db *hidden.DB, failures int32, fail func(w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	inner := NewServer(db, nil)
	var hits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", inner.ServeHTTP)
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		if n := hits.Add(1); n <= failures {
			fail(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	})
	return httptest.NewServer(mux), &hits
}

func fastPolicy(attempts int) retry.Policy {
	return retry.Policy{Attempts: attempts, BaseBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, NoJitter: true}
}

// TestClientExponentialBackoff: with jitter off, the waits between
// attempts follow base·mult^(n-1) — the second retry waits longer than
// the first.
func TestClientExponentialBackoff(t *testing.T) {
	db := testDB(t, 20, 2, 8, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := flakyServer(t, db, 2)
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{Attempts: 4, BaseBackoff: 40 * time.Millisecond,
		Multiplier: 2, NoJitter: true})
	start := time.Now()
	if _, err := c.Query(nil); err != nil {
		t.Fatalf("two 429s must be absorbed: %v", err)
	}
	elapsed := time.Since(start)
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	// Two waits: 40ms then 80ms.
	if elapsed < 120*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 120ms (40ms + 80ms backoff)", elapsed)
	}
}

// TestClientRetriesTransient5xx: a transient 503 is retried away like a
// 429 — the upstream being briefly on fire must not abort discovery.
func TestClientRetriesTransient5xx(t *testing.T) {
	db := testDB(t, 40, 2, 10, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 2, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.SetMetrics(NewClientMetrics(reg, "flaky"))
	c.SetRetryPolicy(fastPolicy(4))
	res, err := c.Query(query.Q{{Attr: 0, Op: query.LE, Value: 5}})
	if err != nil {
		t.Fatalf("transient 503s must be retried away: %v", err)
	}
	want, _ := db.Query(query.Q{{Attr: 0, Op: query.LE, Value: 5}})
	if len(res.Tuples) != len(want.Tuples) {
		t.Fatalf("answer after retries has %d tuples, want %d", len(res.Tuples), len(want.Tuples))
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits.Load())
	}
	if got := c.metrics.Unavailable.Load(); got != 2 {
		t.Fatalf("Unavailable = %d, want 2", got)
	}
	if c.QueriesIssued() != 1 {
		t.Fatalf("QueriesIssued = %d, want 1 (failed attempts never count)", c.QueriesIssued())
	}
}

// TestClientRetriesConnectionReset: a dropped connection mid-request is
// transient; the next attempt reconnects.
func TestClientRetriesConnectionReset(t *testing.T) {
	db := testDB(t, 40, 2, 10, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 2, func(w http.ResponseWriter, _ *http.Request) {
		panic(http.ErrAbortHandler)
	})
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(fastPolicy(4))
	if _, err := c.Query(nil); err != nil {
		t.Fatalf("connection resets must be retried away: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits.Load())
	}
}

// TestClientRetriesTruncatedBody: a 200 whose body is cut mid-payload
// fails to decode and is retried — the query was never counted, so a
// second attempt cannot double-count.
func TestClientRetriesTruncatedBody(t *testing.T) {
	db := testDB(t, 40, 2, 10, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 1, func(w http.ResponseWriter, _ *http.Request) {
		full := []byte(`{"tuples":[[1,2],[3,4]],"overflow":false}`)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(full[:len(full)/2])
		panic(http.ErrAbortHandler)
	})
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(fastPolicy(4))
	if _, err := c.Query(nil); err != nil {
		t.Fatalf("truncated body must be retried away: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", hits.Load())
	}
	if c.QueriesIssued() != 1 {
		t.Fatalf("QueriesIssued = %d, want 1", c.QueriesIssued())
	}
}

// TestClientGivesUpWithTransientError: a persistently broken upstream
// surfaces as *TransientError wrapping retry.ErrUnavailable — distinct
// from a rate limit, so the service layer parks and trips the breaker
// instead of treating it as a budget stop.
func TestClientGivesUpWithTransientError(t *testing.T) {
	db := testDB(t, 20, 2, 8, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 1<<30, func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	})
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(fastPolicy(3))
	_, err = c.Query(nil)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TransientError", err, err)
	}
	if !errors.Is(err, retry.ErrUnavailable) {
		t.Fatal("give-up must errors.Is-match retry.ErrUnavailable")
	}
	if errors.Is(err, hidden.ErrRateLimited) {
		t.Fatal("a 502 give-up must not look like a rate limit")
	}
	if te.Attempts != 3 || hits.Load() != 3 {
		t.Fatalf("attempts: typed %d, server %d; want 3 and 3", te.Attempts, hits.Load())
	}
}

// TestClientPerAttemptTimeout: a stalled upstream is cut off by the
// per-attempt timeout and retried; with every attempt stalling, the
// give-up arrives in bounded time instead of hanging discovery.
func TestClientPerAttemptTimeout(t *testing.T) {
	db := testDB(t, 20, 2, 8, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 1<<30, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the client's per-attempt timeout fired
		case <-time.After(5 * time.Second):
		}
	})
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := fastPolicy(2)
	p.PerAttemptTimeout = 50 * time.Millisecond
	c.SetRetryPolicy(p)
	start := time.Now()
	_, err = c.Query(nil)
	if !errors.Is(err, retry.ErrUnavailable) {
		t.Fatalf("stalled upstream error = %v, want retry.ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("give-up took %v, per-attempt timeout not applied", elapsed)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d attempts, want 2", hits.Load())
	}
}

// TestClientCancelledContextIsFatal: when the job's own context dies the
// client must not retry — cancellation is not the upstream's fault.
func TestClientCancelledContextIsFatal(t *testing.T) {
	db := testDB(t, 20, 2, 8, 5, capsAll(2, hidden.RQ), 0)
	srv, hits := faultyServer(t, db, 0, nil)
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(fastPolicy(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.WithContext(ctx).Query(nil)
	if err == nil || errors.Is(err, retry.ErrUnavailable) {
		t.Fatalf("cancelled-context error = %v, must be fatal, not transient", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d attempts under a dead context", hits.Load())
	}
}

// TestClientRetryAttemptsHistogram: every finished query observes its
// retry count on upstream_retry_attempts (0 on the happy path).
func TestClientRetryAttemptsHistogram(t *testing.T) {
	db := testDB(t, 40, 2, 10, 5, capsAll(2, hidden.RQ), 0)
	srv, _ := flakyServer(t, db, 2)
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.SetMetrics(NewClientMetrics(reg, "s"))
	c.SetRetryPolicy(fastPolicy(4))
	if _, err := c.Query(nil); err != nil { // absorbs 2 retries
		t.Fatal(err)
	}
	if _, err := c.Query(nil); err != nil { // clean
		t.Fatal(err)
	}
	h := c.metrics.RetryAttempts
	if n := h.Count(); n != 2 {
		t.Fatalf("histogram count = %d, want 2 (one observation per query)", n)
	}
	if sum := h.Snapshot().SumMicros; sum != 0.002 {
		t.Fatalf("histogram sum = %vus, want 0.002 (two retries on the first query, 1ns each)", sum)
	}
}
