package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/web"
)

// TestTraceUpstreamSpanCountExact is the tentpole acceptance test: for
// a completed uncached job against a remote store, the exported trace's
// "web.query" span count exactly equals the job's counted queries and
// the upstream_queries_total metric, and the Chrome export is valid
// trace-event JSON.
func TestTraceUpstreamSpanCountExact(t *testing.T) {
	d := testDataset(7, 120)
	upstream := httptest.NewServer(web.NewServer(d.DB(5, hidden.SumRank{}), nil))
	defer upstream.Close()
	wc, err := web.Dial(upstream.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if err := m.AddStore("s", wc); err != nil {
		t.Fatal(err)
	}

	st, err := m.Submit(JobSpec{Store: "s", Algo: "sq"}) // uncached, sequential
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 60*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("job ended %s complete=%v err=%q", final.State, final.Complete, final.Error)
	}
	if final.Queries == 0 {
		t.Fatal("job counted no queries")
	}

	tr, err := m.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != final.TraceID || tr.JobID != st.ID {
		t.Fatalf("trace ids: %+v vs job %s/%s", tr, st.ID, final.TraceID)
	}
	if tr.Truncated {
		t.Fatalf("trace truncated: %d recorded, %d resident", tr.Recorded, len(tr.Spans))
	}

	// Count spans by name; web.query must match the counted queries
	// exactly.
	byName := map[string]int{}
	for i := range tr.Spans {
		byName[tr.Spans[i].Name]++
	}
	if got := byName["web.query"]; got != final.Queries {
		t.Fatalf("%d web.query spans, job counted %d queries (spans by name: %v)",
			got, final.Queries, byName)
	}
	if byName["job"] != 1 || byName["core.run"] != 1 || byName["core.plan"] != 1 {
		t.Fatalf("missing envelope spans: %v", byName)
	}

	// ... and the metric agrees.
	var metric float64
	for _, s := range m.Registry().Snapshots() {
		if s.Name == `upstream_queries_total{store="s"}` {
			metric = s.Value
		}
	}
	if int(metric) != final.Queries {
		t.Fatalf("upstream_queries_total = %v, job counted %d", metric, final.Queries)
	}

	// Every web.query span carries the store label and a 200 status.
	for i := range tr.Spans {
		rec := &tr.Spans[i]
		if rec.Name != "web.query" {
			continue
		}
		if s, _ := rec.AttrStr("store"); s != "s" {
			t.Fatalf("web.query span store = %q", s)
		}
		if n, _ := rec.AttrInt("status"); n != 200 {
			t.Fatalf("web.query span status = %d", n)
		}
		if rec.Phase != "discover" {
			t.Fatalf("web.query span phase = %q", rec.Phase)
		}
	}

	// The HTTP endpoint serves both formats; the Chrome one is valid
	// trace-event JSON with one event per span.
	h := NewHandler(m)
	hts := httptest.NewServer(h)
	defer hts.Close()

	resp, err := http.Get(hts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var overHTTP TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&overHTTP); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(overHTTP.Spans) != len(tr.Spans) {
		t.Fatalf("HTTP trace has %d spans, manager %d", len(overHTTP.Spans), len(tr.Spans))
	}

	resp, err = http.Get(hts.URL + "/v1/jobs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   int64   `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &chrome); err != nil {
		t.Fatalf("chrome export is not valid trace-event JSON: %v", err)
	}
	if len(chrome.TraceEvents) != len(tr.Spans) {
		t.Fatalf("chrome export has %d events, trace %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}
	webQueries := 0
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event ph = %q", ev.Ph)
		}
		if ev.Name == "web.query" {
			webQueries++
		}
	}
	if webQueries != final.Queries {
		t.Fatalf("chrome export has %d web.query events, job counted %d", webQueries, final.Queries)
	}

	// The typed client fetches both shapes too.
	sc, err := Dial(hts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sc.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Spans) != len(tr.Spans) {
		t.Fatalf("client trace has %d spans", len(ct.Spans))
	}
	raw, err := sc.TraceChrome(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("client chrome export invalid: %v", err)
	}
}

// TestTraceCachedJobAnnotatesLookups: a cached job's trace carries one
// qcache.lookup span per lookup, with hit/miss outcomes that add up, and
// over a remote store every lookup that missed shares its key
// fingerprint with the web.query span it caused.
func TestTraceCachedJobAnnotatesLookups(t *testing.T) {
	d := testDataset(11, 80)
	upstream := httptest.NewServer(web.NewServer(d.DB(5, hidden.SumRank{}), nil))
	defer upstream.Close()
	wc, err := web.Dial(upstream.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if err := m.AddStore("s", wc); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Store: "s", Algo: "sq", UseCache: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	tr, err := m.Trace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	lookups := map[string]int{}
	missKeys, queryKeys := map[int64]bool{}, map[int64]bool{}
	for i := range tr.Spans {
		rec := &tr.Spans[i]
		key, _ := rec.AttrInt("key")
		switch rec.Name {
		case "web.query":
			queryKeys[key] = true
		case "qcache.lookup":
			o, _ := rec.AttrStr("outcome")
			lookups[o]++
			if o == "miss" {
				missKeys[key] = true
			}
		}
	}
	stats := m.CacheStats()
	if got := lookups["hit"] + lookups["miss"] + lookups["coalesced"]; got != stats.Lookups {
		t.Fatalf("%d lookup spans (%v), cache counted %d lookups", got, lookups, stats.Lookups)
	}
	if lookups["miss"] != stats.Misses {
		t.Fatalf("%d miss spans, cache counted %d misses", lookups["miss"], stats.Misses)
	}
	if final.Queries != stats.Lookups {
		t.Fatalf("job counted %d queries, cache saw %d lookups", final.Queries, stats.Lookups)
	}
	if len(missKeys) != stats.Misses {
		t.Fatalf("%d distinct miss keys for %d misses", len(missKeys), stats.Misses)
	}
	if fmt.Sprint(missKeys) != fmt.Sprint(queryKeys) {
		t.Fatalf("miss keys and web.query keys differ:\nmiss:  %v\nquery: %v", missKeys, queryKeys)
	}
}

// TestSSEPhaseTransitionsInOrder is the SSE satellite: a watched job's
// event stream carries the trace id on every event and walks the
// lifecycle phases in order (submit → start → discover → publish →
// done), never backwards.
func TestSSEPhaseTransitionsInOrder(t *testing.T) {
	d := testDataset(13, 100)
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	// A small delay per query keeps the job alive long enough for the
	// stream to see mid-run events.
	store := &instrumentedDB{Interface: d.DB(5, hidden.SumRank{}), delay: time.Millisecond}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(NewHandler(m))
	defer hts.Close()
	sc, err := Dial(hts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := m.Submit(JobSpec{Store: "s"})
	if err != nil {
		t.Fatal(err)
	}

	rank := map[string]int{"submit": 0, "start": 1, "discover": 2, "publish": 3, "done": 4}
	var phases []string
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := sc.Watch(ctx, st.ID, func(ev JobStatus) {
		if ev.TraceID != st.TraceID {
			t.Errorf("event trace_id = %q, want %q", ev.TraceID, st.TraceID)
		}
		if ev.Phase == "" {
			t.Error("event carries no phase")
		}
		if len(phases) == 0 || phases[len(phases)-1] != ev.Phase {
			phases = append(phases, ev.Phase)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	last := -1
	for _, p := range phases {
		r, known := rank[p]
		if !known {
			t.Fatalf("unknown phase %q in %v", p, phases)
		}
		if r < last {
			t.Fatalf("phase went backwards: %v", phases)
		}
		last = r
	}
	if phases[len(phases)-1] != "done" {
		t.Fatalf("stream ended on phase %q, want done (%v)", phases[len(phases)-1], phases)
	}
	seen := map[string]bool{}
	for _, p := range phases {
		seen[p] = true
	}
	if !seen["discover"] {
		t.Fatalf("stream never showed the discover phase: %v", phases)
	}
}
