package web

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// TestWireCodecAlloc pins the codec's allocations per search body:
// encoding into a reused buffer allocates nothing, and decoding
// allocates only the decoded value's own memory, each slice sized once
// (a request with three predicates: the predicate slice and the one
// op string longer than a byte; a response with three 3-int tuples:
// the row slice and one array per row).
func TestWireCodecAlloc(t *testing.T) {
	req := SearchRequest{Preds: []WirePredicate{{Attr: 0, Op: "<", Value: 12}, {Attr: 2, Op: ">=", Value: -3}, {Attr: 1, Op: "=", Value: 7}}}
	resp := SearchResponse{Tuples: [][]int{{1, 40, 7}, {3, 12, 9}, {5, 5, 5}}, Overflow: true}
	reqBody, _ := req.AppendJSON(nil)
	respBody, _ := resp.AppendJSON(nil)
	buf := make([]byte, 0, 1024)
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"encode request", 0, func() { buf, _ = req.AppendJSON(buf[:0]) }},
		{"encode response", 0, func() { buf, _ = resp.AppendJSON(buf[:0]) }},
		{"decode request", 2, func() {
			var r SearchRequest
			_ = r.UnmarshalJSON(reqBody)
		}},
		{"decode response", 4, func() {
			var r SearchResponse
			_ = r.UnmarshalJSON(respBody)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}

// searchBody is the handler pin's request, two range predicates whose
// answer overflows k=10 on allocDB; the loopback pin sends the same
// predicates through Client.Query.
var searchBody = []byte(`{"preds":[{"attr":0,"op":"<=","value":50},{"attr":1,"op":">=","value":10}]}`)

func allocDB(t *testing.T) *hidden.DB {
	return testDB(t, 5000, 3, 100, 10, capsAll(3, hidden.RQ), 0)
}

// TestSearchHandlerAlloc pins the allocations of one /v1/search request
// through the full handler stack, httptest's request and recorder
// included: pooled body reads, the reflection-free codec and the pooled
// response encoder keep it at a fixed count, and a return to
// encoding/json, or any new per-request garbage, moves it.
func TestSearchHandlerAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	srv := NewServer(allocDB(t), nil)
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(searchBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("search answered %d: %s", rec.Code, rec.Body)
		}
	})
	if allocs != 28 {
		t.Fatalf("/v1/search handler: %v allocs/op, want 28", allocs)
	}
}

// TestClientQueryLoopbackAlloc pins the allocations of one
// web.Client.Query over a real loopback connection: the client's
// request build, retry loop and response decode plus the server's whole
// side of the round trip, on a reused keep-alive connection.
func TestClientQueryLoopbackAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	ts := httptest.NewServer(NewServer(allocDB(t), nil))
	defer ts.Close()
	c, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Q{{Attr: 0, Op: query.LE, Value: 50}, {Attr: 1, Op: query.GE, Value: 10}}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 106 {
		t.Fatalf("loopback Client.Query: %v allocs/op, want 106", allocs)
	}
}
