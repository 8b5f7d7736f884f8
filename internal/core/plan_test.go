package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// planParityDB builds a fresh database per call over one deterministic
// dataset, so each run gets its own query counter over identical data.
func planParityDB(t *testing.T, caps []hidden.Capability, seed int64) func() *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := uniqueData(rng, 70, len(caps), 12)
	return func() *hidden.DB {
		return mkDB(t, data, caps, 4, hidden.SumRank{})
	}
}

// TestResumeFilterPinned: a checkpoint records the filter it was
// planned with, and resuming it under a different (or dropped) filter
// is a typed error — the frontier would be neither the filtered nor
// the full skyline.
func TestResumeFilterPinned(t *testing.T) {
	fresh := planParityDB(t, capsAll(2, hidden.RQ), 8)
	db := fresh()
	filter := query.MustParse("A0<6")
	plan, err := Plan(db, Request{Resumable: true, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.Session()
	if sess.Filter == "" {
		t.Fatal("filtered plan's session carries no filter pin")
	}

	// The same filter replans (the CLI's next-day invocation).
	if _, err := Plan(db, Request{Resumable: true, Filter: filter, Session: sess}); err != nil {
		t.Fatalf("same-filter resume rejected: %v", err)
	}
	// The pin survives serialization.
	var buf bytes.Buffer
	if err := sess.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(db, Request{Resumable: true, Filter: filter, Session: loaded}); err != nil {
		t.Fatalf("same-filter resume of reloaded session rejected: %v", err)
	}
	// A different filter, or forgetting it, is caught.
	if _, err := Plan(db, Request{Resumable: true, Filter: query.MustParse("A0<9"), Session: loaded}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("changed-filter resume: got %v, want ErrUnsupported", err)
	}
	if _, err := Plan(db, Request{Resumable: true, Session: loaded}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("dropped-filter resume: got %v, want ErrUnsupported", err)
	}
	// Pre-planner checkpoints (no pin) still resume unfiltered.
	legacy := NewSession(db)
	if _, err := Plan(db, Request{Resumable: true, Session: legacy}); err != nil {
		t.Errorf("legacy unfiltered session rejected: %v", err)
	}
}

// maxIntDB serves three 2-attribute tuples whose A1 domain is advertised
// up to math.MaxInt.
func maxIntDB(t testing.TB, caps []hidden.Capability) *hidden.DB {
	t.Helper()
	db, err := hidden.New(hidden.Config{
		Data: [][]int{{1, 5}, {3, 2}, {2, 2}}, Caps: caps, K: 1, Rank: hidden.SumRank{},
		Domains: []query.Interval{{Lo: 0, Hi: 9}, {Lo: 0, Hi: math.MaxInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlanResolvesAuto(t *testing.T) {
	sq, rq, pq := hidden.SQ, hidden.RQ, hidden.PQ
	cases := []struct {
		caps []hidden.Capability
		req  Request
		want Algo
	}{
		{[]hidden.Capability{sq, sq}, Request{}, AlgoSQ},
		{[]hidden.Capability{sq, rq}, Request{}, AlgoRQ},
		{[]hidden.Capability{rq, rq}, Request{}, AlgoRQ},
		{[]hidden.Capability{pq, pq}, Request{}, AlgoPQ},
		{[]hidden.Capability{sq, pq}, Request{}, AlgoMQ},
		{[]hidden.Capability{rq, rq}, Request{Band: 2}, AlgoRQ},
		{[]hidden.Capability{pq, pq}, Request{Band: 2}, AlgoPQ},
		{[]hidden.Capability{sq, rq}, Request{Band: 2}, AlgoSQ},
		{[]hidden.Capability{rq, rq}, Request{Resumable: true}, AlgoSQ},
		{[]hidden.Capability{rq, rq}, Request{Algo: "SQ"}, AlgoSQ}, // case-insensitive
	}
	for _, tc := range cases {
		db := planParityDB(t, tc.caps, 1)()
		plan, err := Plan(db, tc.req)
		if err != nil {
			t.Errorf("Plan(%v caps, %+v): %v", tc.caps, tc.req, err)
			continue
		}
		if plan.Algo != tc.want {
			t.Errorf("Plan(%v caps, %+v) resolved %q, want %q", tc.caps, tc.req, plan.Algo, tc.want)
		}
	}
}

func TestPlanTypedErrors(t *testing.T) {
	sq, rq, pq := hidden.SQ, hidden.RQ, hidden.PQ
	unsupported := []struct {
		name string
		caps []hidden.Capability
		req  Request
	}{
		{"mq-band", []hidden.Capability{sq, rq, pq}, Request{Algo: AlgoMQ, Band: 2}},
		{"auto-band-mixed", []hidden.Capability{rq, pq}, Request{Band: 2}},
		{"rq-band-on-sq", []hidden.Capability{sq, sq}, Request{Algo: AlgoRQ, Band: 2}},
		{"pq-band-on-rq", []hidden.Capability{rq, rq}, Request{Algo: AlgoPQ, Band: 2}},
		{"sq-band-on-pq", []hidden.Capability{pq, pq}, Request{Algo: AlgoSQ, Band: 2}},
		{"resumable-rq", []hidden.Capability{rq, rq}, Request{Algo: AlgoRQ, Resumable: true}},
		{"resumable-band", []hidden.Capability{rq, rq}, Request{Band: 2, Resumable: true}},
		{"resumable-on-pq", []hidden.Capability{pq, pq}, Request{Resumable: true}},
		{"sq-on-pq", []hidden.Capability{pq, pq}, Request{Algo: AlgoSQ}},
		{"rq-on-pq", []hidden.Capability{rq, pq}, Request{Algo: AlgoRQ}},
		{"filter-range-on-pq", []hidden.Capability{pq, pq}, Request{Filter: query.MustParse("A0<5")}},
		{"filter-ge-on-sq", []hidden.Capability{sq, sq}, Request{Filter: query.MustParse("A1>=3")}},
		{"filter-attr-oob", []hidden.Capability{rq, rq}, Request{Filter: query.MustParse("A7=1")}},
	}
	expectUnsupported := func(t *testing.T, db *hidden.DB, req Request) {
		t.Helper()
		_, err := Run(db, req, Options{})
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("got %v, want ErrUnsupported", err)
		}
		var pe *PlanError
		if !errors.As(err, &pe) || pe.Reason == "" {
			t.Fatalf("error %v carries no *PlanError reason", err)
		}
		if served := db.QueriesIssued(); served != 0 {
			t.Fatalf("planning issued %d queries", served)
		}
	}
	for _, tc := range unsupported {
		t.Run(tc.name, func(t *testing.T) {
			expectUnsupported(t, planParityDB(t, tc.caps, 2)(), tc.req)
		})
	}
	// A domain ending at MaxInt has no Hi+1 bound for the range walks and
	// no end for the point walks' value loops, whatever the request.
	for name, req := range map[string]Request{
		"auto": {}, "sq": {Algo: AlgoSQ}, "rq": {Algo: AlgoRQ}, "pq": {Algo: AlgoPQ}, "mq": {Algo: AlgoMQ},
		"rq-band": {Band: 2}, "sq-band": {Algo: AlgoSQ, Band: 2}, "resumable": {Resumable: true},
	} {
		t.Run("domain-ends-at-maxint/"+name, func(t *testing.T) {
			expectUnsupported(t, maxIntDB(t, capsAll(2, rq)), req)
		})
	}
	db := maxIntDB(t, capsAll(2, rq))
	if _, err := NewSession(db).Resume(db, Options{}); !errors.Is(err, ErrUnsupported) || db.QueriesIssued() != 0 {
		t.Errorf("Session.Resume on a MaxInt domain: %v after %d queries, want ErrUnsupported after none", err, db.QueriesIssued())
	}

	db = planParityDB(t, capsAll(2, rq), 3)()
	if _, err := Plan(db, Request{Algo: "quantum"}); err == nil || errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown algorithm: got %v, want a plain parse error", err)
	}
	if _, err := Plan(db, Request{Band: -1}); err == nil {
		t.Error("negative band accepted")
	}
	if _, err := Plan(db, Request{Resumable: true, Session: &Session{Attrs: 5}}); err == nil {
		t.Error("session schema mismatch accepted")
	}
}
