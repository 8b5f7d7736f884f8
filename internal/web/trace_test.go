package web

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

func traceTestDB(t *testing.T, limit int) *hidden.DB {
	t.Helper()
	data := make([][]int, 60)
	for i := range data {
		data[i] = []int{i % 13, (i * 7) % 19}
	}
	db, err := hidden.New(hidden.Config{
		Data: data,
		Caps: []hidden.Capability{hidden.RQ, hidden.RQ},
		K:    5, QueryLimit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTracedQuerySpansAndHeaderEcho drives a traced client against a
// real server and checks both halves of the correlation story: every
// answered query leaves exactly one "web.query" span (store, key,
// tuples, status, retries), and the server's access-log line echoes
// the X-Trace-Id header the client sent.
func TestTracedQuerySpansAndHeaderEcho(t *testing.T) {
	srv := NewServer(traceTestDB(t, 0), nil)
	var logBuf bytes.Buffer
	srv.SetLogger(obs.NewLogger(&logBuf, "webtest"))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetName("smoke")
	st := obs.NewSpanStore(64)
	tr := st.Tracer("feedcafe00112233")
	tc := c.WithTrace(tr, 9)

	for i := 0; i < 3; i++ {
		if _, err := tc.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5 + i}}); err != nil {
			t.Fatal(err)
		}
	}

	spans := st.Collect("feedcafe00112233")
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if got := tc.QueriesIssued(); got != 3 {
		t.Fatalf("QueriesIssued = %d", got)
	}
	for i, rec := range spans {
		if rec.Name != "web.query" || rec.Parent != 9 {
			t.Fatalf("span %d = %s parent=%d", i, rec.Name, rec.Parent)
		}
		if s, _ := rec.AttrStr("store"); s != "smoke" {
			t.Fatalf("span %d store = %q", i, s)
		}
		if n, ok := rec.AttrInt("status"); !ok || n != 200 {
			t.Fatalf("span %d status = %d %v", i, n, ok)
		}
		if _, ok := rec.AttrInt("tuples"); !ok {
			t.Fatalf("span %d has no tuples attr", i)
		}
		if _, ok := rec.AttrInt("key"); !ok {
			t.Fatalf("span %d has no key fingerprint", i)
		}
		if n, _ := rec.AttrInt("retries"); n != 0 {
			t.Fatalf("span %d retries = %d", i, n)
		}
	}
	// Distinct canonical boxes fingerprint differently.
	k0, _ := spans[0].AttrInt("key")
	k1, _ := spans[1].AttrInt("key")
	if k0 == k1 {
		t.Fatal("distinct queries share a key fingerprint")
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "trace_id=feedcafe00112233") {
		t.Fatalf("access log does not echo the trace id:\n%s", logs)
	}
	if !strings.Contains(logs, "status=200") {
		t.Fatalf("access log has no status:\n%s", logs)
	}
}

// TestUntracedClientSendsNoTraceHeader: a plain client must not emit
// an X-Trace-Id header (the server logs an empty trace_id).
func TestUntracedClientSendsNoTraceHeader(t *testing.T) {
	var sawHeader string
	srv := NewServer(traceTestDB(t, 0), nil)
	ts := httptest.NewServer(wrapCapture(srv, &sawHeader))
	defer ts.Close()
	c, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	if sawHeader != "" {
		t.Fatalf("untraced client sent X-Trace-Id %q", sawHeader)
	}
}

// TestTerminalRateLimitSpanRenamed: a terminal 429 records a
// "web.rate_limited" span, never a "web.query" one — the span count
// must keep matching the counted (200-answered) queries exactly. The
// 429 is a spent query limit, which is not retried.
func TestTerminalRateLimitSpanRenamed(t *testing.T) {
	srv := NewServer(traceTestDB(t, 1), nil) // 1 query then rate-limited
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(retry.Policy{Attempts: 2, BaseBackoff: 1, NoJitter: true})
	st := obs.NewSpanStore(64)
	tc := c.WithTrace(st.Tracer("t"), 0)

	if _, err := tc.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Query(query.Q{{Attr: 0, Op: query.LT, Value: 6}}); err == nil {
		t.Fatal("second query should be rate-limited")
	}

	var queries, limited int
	for _, rec := range st.Collect("t") {
		switch rec.Name {
		case "web.query":
			queries++
		case "web.rate_limited":
			limited++
			if n, _ := rec.AttrInt("status"); n != 429 {
				t.Fatalf("rate-limited span status = %d", n)
			}
			if n, _ := rec.AttrInt("retries"); n != 0 {
				t.Fatalf("rate-limited span retries = %d", n)
			}
		default:
			t.Fatalf("unexpected span %q", rec.Name)
		}
	}
	if queries != 1 || limited != 1 {
		t.Fatalf("spans: %d web.query, %d web.rate_limited; want 1 and 1", queries, limited)
	}
	if got := tc.QueriesIssued(); got != queries {
		t.Fatalf("QueriesIssued = %d, web.query spans = %d", got, queries)
	}
}

// wrapCapture records the X-Trace-Id header of search requests.
func wrapCapture(next *Server, dst *string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" {
			*dst = r.Header.Get("X-Trace-Id")
		}
		next.ServeHTTP(w, r)
	})
}
