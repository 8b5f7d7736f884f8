package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"hiddensky/internal/core"
	"hiddensky/internal/crawl"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

func testDB(t *testing.T, n, m, domain, k int, caps []hidden.Capability, limit int) *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([][]int, n)
	for i := range data {
		tup := make([]int, m)
		for j := range tup {
			tup[j] = rng.Intn(domain)
		}
		data[i] = tup
	}
	db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: k, QueryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func capsAll(m int, c hidden.Capability) []hidden.Capability {
	out := make([]hidden.Capability, m)
	for i := range out {
		out[i] = c
	}
	return out
}

func TestMetaEndpoint(t *testing.T) {
	db := testDB(t, 50, 3, 10, 4, []hidden.Capability{hidden.SQ, hidden.RQ, hidden.PQ}, 0)
	srv := httptest.NewServer(NewServer(db, []string{"Price", "", "Stops"}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta MetaResponse
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.K != 4 || len(meta.Attrs) != 3 {
		t.Fatalf("meta %+v", meta)
	}
	if meta.Attrs[0].Name != "Price" || meta.Attrs[1].Name != "A1" || meta.Attrs[2].Name != "Stops" {
		t.Fatalf("names %+v", meta.Attrs)
	}
	if meta.Attrs[0].Cap != "SQ" || meta.Attrs[1].Cap != "RQ" || meta.Attrs[2].Cap != "PQ" {
		t.Fatalf("caps %+v", meta.Attrs)
	}
}

func TestSearchEndpointSemantics(t *testing.T) {
	db := testDB(t, 200, 2, 20, 3, capsAll(2, hidden.RQ), 0)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()

	post := func(body string) (*http.Response, SearchResponse) {
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr SearchResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		return resp, sr
	}

	resp, sr := post(`{"preds":[]}`)
	if resp.StatusCode != 200 || len(sr.Tuples) != 3 || !sr.Overflow {
		t.Fatalf("SELECT *: %d, %+v", resp.StatusCode, sr)
	}
	resp, sr = post(`{"preds":[{"attr":0,"op":"<","value":5},{"attr":1,"op":">=","value":15}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("range query rejected: %d", resp.StatusCode)
	}
	for _, tup := range sr.Tuples {
		if tup[0] >= 5 || tup[1] < 15 {
			t.Fatalf("answer violates predicates: %v", tup)
		}
	}
	// Malformed and invalid requests answer 400.
	for _, bad := range []string{
		`{"preds":[{"attr":0,"op":"!","value":1}]}`,
		`{"preds":[{"attr":9,"op":"<","value":1}]}`,
		`not json`,
	} {
		resp, _ := post(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %q answered %d", bad, resp.StatusCode)
		}
	}
}

func TestCapabilityEnforcedOverHTTP(t *testing.T) {
	db := testDB(t, 50, 2, 8, 2, []hidden.Capability{hidden.SQ, hidden.PQ}, 0)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/search", "application/json",
		bytes.NewBufferString(`{"preds":[{"attr":0,"op":">","value":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("> on SQ attribute answered %d", resp.StatusCode)
	}
}

func TestRateLimitOverHTTP(t *testing.T) {
	db := testDB(t, 50, 2, 8, 2, capsAll(2, hidden.RQ), 2)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, _ := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewBufferString(`{"preds":[]}`))
		resp.Body.Close()
	}
	resp, _ := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewBufferString(`{"preds":[]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted budget answered %d", resp.StatusCode)
	}
}

// The flagship integration: run every discovery algorithm against the
// HTTP client and compare with local ground truth.
func TestDiscoveryOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name string
		caps []hidden.Capability
	}{
		{"rq", capsAll(3, hidden.RQ)},
		{"sq", capsAll(3, hidden.SQ)},
		{"pq", capsAll(3, hidden.PQ)},
		{"mixed", []hidden.Capability{hidden.RQ, hidden.SQ, hidden.PQ}},
	} {
		db := testDB(t, 300, 3, 6, 3, tc.caps, 0)
		srv := httptest.NewServer(NewServer(db, nil))
		client, err := Dial(srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(client, core.Request{}, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := skyline.ComputeTuples(db.GroundTruth())
		wantSet := map[string]bool{}
		for _, w := range want {
			wantSet[fmt.Sprint(w)] = true
		}
		if len(res.Skyline) != len(wantSet) {
			t.Fatalf("%s: %d skyline tuples over HTTP, want %d", tc.name, len(res.Skyline), len(wantSet))
		}
		for _, s := range res.Skyline {
			if !wantSet[fmt.Sprint(s)] {
				t.Fatalf("%s: phantom tuple %v", tc.name, s)
			}
		}
		if client.QueriesIssued() != res.Queries {
			t.Fatalf("%s: client counted %d requests, algorithm %d", tc.name, client.QueriesIssued(), res.Queries)
		}
		srv.Close()
	}
}

func TestCrawlOverHTTP(t *testing.T) {
	db := testDB(t, 150, 2, 12, 4, capsAll(2, hidden.RQ), 0)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	client, err := Dial(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	res, err := crawl.Crawl(client, crawl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]bool{}
	for _, tup := range db.GroundTruth() {
		truth[fmt.Sprint(tup)] = true
	}
	got := map[string]bool{}
	for _, tup := range res.Tuples {
		got[fmt.Sprint(tup)] = true
	}
	if len(got) != len(truth) {
		t.Fatalf("crawl over HTTP got %d distinct tuples, want %d", len(got), len(truth))
	}
}

func TestRemoteRateLimitSurfacesAsBudget(t *testing.T) {
	db := testDB(t, 400, 3, 15, 1, capsAll(3, hidden.RQ), 5)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	client, err := Dial(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(client, core.Request{}, core.Options{})
	if !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget from remote 429, got %v", err)
	}
	if res.Complete {
		t.Fatal("rate-limited remote run marked complete")
	}
}

func TestDialValidation(t *testing.T) {
	// A server that answers garbage meta.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"attrs":[],"k":0}`))
	}))
	defer bad.Close()
	if _, err := Dial(bad.URL, bad.Client()); err == nil {
		t.Fatal("implausible meta accepted")
	}
	if _, err := Dial("http://127.0.0.1:1", nil); err == nil {
		t.Fatal("unreachable endpoint accepted")
	}
	weird := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"attrs":[{"name":"a","cap":"XX","lo":0,"hi":1}],"k":1}`))
	}))
	defer weird.Close()
	if _, err := Dial(weird.URL, weird.Client()); err == nil {
		t.Fatal("unknown capability accepted")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []query.Op{query.LT, query.LE, query.EQ, query.GE, query.GT} {
		parsed, err := parseOp(encodeOp(op))
		if err != nil || parsed != op {
			t.Fatalf("op %v round-trips to %v (%v)", op, parsed, err)
		}
	}
	if _, err := parseOp("!~"); err == nil {
		t.Fatal("junk op parsed")
	}
}

// Every error the server emits — 400 (malformed body, bad operator,
// unsupported predicate), 429 (rate limit) and 404 (unknown path) —
// must carry the structured JSON envelope {"error": "..."} with
// Content-Type: application/json, never plain text.
func TestErrorsAreStructuredJSON(t *testing.T) {
	db := testDB(t, 30, 2, 8, 2, []hidden.Capability{hidden.SQ, hidden.PQ}, 3)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()

	checkEnvelope := func(t *testing.T, resp *http.Response, wantStatus int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body is not JSON: %v", err)
		}
		if e.Error == "" {
			t.Fatal("error envelope has an empty message")
		}
	}

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("malformed body 400", func(t *testing.T) {
		checkEnvelope(t, post(`{not json`), http.StatusBadRequest)
	})
	t.Run("unknown operator 400", func(t *testing.T) {
		checkEnvelope(t, post(`{"preds":[{"attr":0,"op":"!","value":1}]}`), http.StatusBadRequest)
	})
	t.Run("unsupported predicate 400", func(t *testing.T) {
		// attr 1 is PQ: range operators are rejected by the capability.
		checkEnvelope(t, post(`{"preds":[{"attr":1,"op":"<","value":3}]}`), http.StatusBadRequest)
	})
	t.Run("rate limited 429", func(t *testing.T) {
		for i := 0; i < 3; i++ {
			resp := post(`{"preds":[]}`)
			resp.Body.Close()
		}
		resp := post(`{"preds":[]}`)
		if resp.Header.Get("Retry-After") != "" {
			t.Error("a spent query limit never refills; its 429 must not advertise Retry-After")
		}
		checkEnvelope(t, resp, http.StatusTooManyRequests)
	})
	t.Run("unknown path 404", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/v2/nothing")
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(t, resp, http.StatusNotFound)
	})
}

// A wrong method on an existing endpoint keeps its 405 + Allow header
// (the catch-all 404 must not swallow it) and carries the JSON
// envelope.
func TestMethodNotAllowedIsStructuredJSON(t *testing.T) {
	db := testDB(t, 10, 2, 8, 2, capsAll(2, hidden.RQ), 0)
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/meta", "application/json", bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/meta answered %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow == "" {
		t.Fatal("405 lost its Allow header")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("405 body not a JSON envelope: %v %q", err, e.Error)
	}
	resp2, err := http.Get(srv.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search answered %d, want 405", resp2.StatusCode)
	}
}
