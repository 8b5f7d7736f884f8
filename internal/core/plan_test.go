package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// The parity suite: core.Run must be *exactly* the legacy entry points
// — same skyline set, same query count — for every point of Request
// space that has a legacy equivalent. The planner only selects and
// wires; it must never add, drop or reorder a query. Sequential runs
// are bit-for-bit deterministic, so those cells assert exact query
// counts; parallel cells assert the set contract plus exact accounting
// (reported count == queries the backend served), since worker
// scheduling legitimately varies the traversal between any two
// parallel runs — legacy ones included.

// planParityDB builds one deterministic database per cell so the legacy
// and planner runs each get a fresh query counter over identical data.
func planParityDB(t *testing.T, caps []hidden.Capability, seed int64) func() *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := uniqueData(rng, 70, len(caps), 12)
	return func() *hidden.DB {
		return mkDB(t, data, caps, 4, hidden.SumRank{})
	}
}

func TestRunMatchesLegacySkyline(t *testing.T) {
	sq, rq, pq := hidden.SQ, hidden.RQ, hidden.PQ
	cells := []struct {
		name   string
		caps   []hidden.Capability
		req    Request
		legacy func(Interface, Options) (Result, error)
	}{
		{"auto/sq-caps", []hidden.Capability{sq, sq}, Request{}, Discover},
		{"auto/rq-caps", []hidden.Capability{rq, rq}, Request{}, Discover},
		{"auto/pq-caps", []hidden.Capability{pq, pq}, Request{}, Discover},
		{"auto/mixed", []hidden.Capability{sq, rq, pq}, Request{}, Discover},
		{"sq/explicit", []hidden.Capability{sq, sq}, Request{Algo: AlgoSQ}, sqDBSky},
		{"sq/on-rq", []hidden.Capability{rq, rq}, Request{Algo: AlgoSQ}, sqDBSky},
		{"rq/explicit", []hidden.Capability{rq, rq}, Request{Algo: AlgoRQ}, rqDBSky},
		{"rq/mixed-sq", []hidden.Capability{sq, rq}, Request{Algo: AlgoRQ}, rqDBSky},
		{"pq/explicit", []hidden.Capability{pq, pq}, Request{Algo: AlgoPQ}, pqDBSky},
		{"mq/explicit", []hidden.Capability{sq, rq, pq}, Request{Algo: AlgoMQ}, mqDBSky},
		{"filter/auto", []hidden.Capability{rq, rq},
			Request{Filter: query.MustParse("A0<8,A1>=2")},
			func(db Interface, opt Options) (Result, error) {
				return DiscoverWhere(db, query.MustParse("A0<8,A1>=2"), opt)
			}},
		{"filter/pq-eq", []hidden.Capability{pq, pq},
			Request{Filter: query.MustParse("A0=3")},
			func(db Interface, opt Options) (Result, error) {
				return DiscoverWhere(db, query.MustParse("A0=3"), opt)
			}},
	}
	for _, cell := range cells {
		for _, par := range []int{1, 3} {
			name := cell.name
			if par > 1 {
				name += "/parallel"
			}
			t.Run(name, func(t *testing.T) {
				fresh := planParityDB(t, cell.caps, 42)
				opt := Options{Parallelism: par}

				legacyDB := fresh()
				want, err := cell.legacy(legacyDB, opt)
				if err != nil {
					t.Fatalf("legacy: %v", err)
				}
				plannedDB := fresh()
				got, err := Run(plannedDB, cell.req, opt)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				if ok, diff := sameTupleSet(got.Skyline, want.Skyline); !ok {
					t.Fatalf("skyline mismatch: %s (got %d, want %d tuples)",
						diff, len(got.Skyline), len(want.Skyline))
				}
				if got.Complete != want.Complete {
					t.Fatalf("Complete: got %v, want %v", got.Complete, want.Complete)
				}
				if got.Queries != plannedDB.QueriesIssued() {
					t.Fatalf("accounting: Run reported %d queries, backend served %d",
						got.Queries, plannedDB.QueriesIssued())
				}
				if par == 1 && got.Queries != want.Queries {
					t.Fatalf("cost: Run spent %d queries, legacy %d", got.Queries, want.Queries)
				}
			})
		}
	}
}

func TestRunMatchesLegacyBand(t *testing.T) {
	sq, rq, pq := hidden.SQ, hidden.RQ, hidden.PQ
	cells := []struct {
		name   string
		caps   []hidden.Capability
		req    Request
		legacy func(Interface, int, Options) (BandResult, error)
	}{
		{"band/auto-rq", []hidden.Capability{rq, rq}, Request{Band: 2}, rqBandSky},
		{"band/auto-pq", []hidden.Capability{pq, pq}, Request{Band: 2}, pqBandSky},
		{"band/auto-sq", []hidden.Capability{sq, sq}, Request{Band: 2}, sqBandSky},
		{"band/auto-sqrq", []hidden.Capability{sq, rq}, Request{Band: 2}, sqBandSky},
		{"band/explicit-rq", []hidden.Capability{rq, rq}, Request{Algo: AlgoRQ, Band: 3}, rqBandSky},
		{"band/explicit-pq", []hidden.Capability{pq, pq}, Request{Algo: AlgoPQ, Band: 3}, pqBandSky},
		{"band/explicit-sq-on-rq", []hidden.Capability{rq, rq}, Request{Algo: AlgoSQ, Band: 2}, sqBandSky},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			fresh := planParityDB(t, cell.caps, 99)
			legacyDB := fresh()
			want, err := cell.legacy(legacyDB, cell.req.Band, Options{})
			if err != nil {
				t.Fatalf("legacy: %v", err)
			}
			plannedDB := fresh()
			got, err := Run(plannedDB, cell.req, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if ok, diff := sameTupleSet(got.Skyline, want.Tuples); !ok {
				t.Fatalf("band mismatch: %s (got %d, want %d tuples)",
					diff, len(got.Skyline), len(want.Tuples))
			}
			if got.Queries != want.Queries {
				t.Fatalf("cost: Run spent %d queries, legacy %d", got.Queries, want.Queries)
			}
			if got.Complete != want.Complete {
				t.Fatalf("Complete: got %v, want %v", got.Complete, want.Complete)
			}
			if got.Band != cell.req.Band {
				t.Fatalf("Result.Band = %d, want %d", got.Band, cell.req.Band)
			}
			if len(got.BandCounts) != len(got.Skyline) {
				t.Fatalf("BandCounts has %d entries for %d tuples", len(got.BandCounts), len(got.Skyline))
			}
		})
	}
}

// TestRunMatchesLegacyResume: the planner's resumable path is the same
// checkpointed session walk, slice for slice — identical skyline set
// and identical cumulative query count under an interrupting budget.
func TestRunMatchesLegacyResume(t *testing.T) {
	fresh := planParityDB(t, capsAll(2, hidden.RQ), 7)

	legacyDB := fresh()
	ls := NewSession(legacyDB)
	var want Result
	for i := 0; i < 200 && !ls.Done(); i++ {
		var err error
		want, err = ls.Resume(legacyDB, Options{MaxQueries: 5})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("legacy resume: %v", err)
		}
	}

	plannedDB := fresh()
	req := Request{Resumable: true}
	plan, err := Plan(plannedDB, req)
	if err != nil {
		t.Fatal(err)
	}
	sess := plan.Session()
	if sess == nil {
		t.Fatal("resumable plan has no session")
	}
	var got Result
	for i := 0; i < 200 && !sess.Done(); i++ {
		req.Session = sess
		got, err = Run(plannedDB, req, Options{MaxQueries: 5})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("planned resume: %v", err)
		}
	}

	if !want.Complete || !got.Complete {
		t.Fatalf("runs incomplete: legacy %v, planned %v", want.Complete, got.Complete)
	}
	if ok, diff := sameTupleSet(got.Skyline, want.Skyline); !ok {
		t.Fatalf("skyline mismatch: %s", diff)
	}
	if got.Queries != want.Queries {
		t.Fatalf("cost: planned sessions spent %d queries, legacy %d", got.Queries, want.Queries)
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
	for _, tc := range unsupported {
		t.Run(tc.name, func(t *testing.T) {
			db := planParityDB(t, tc.caps, 2)()
			_, err := Plan(db, tc.req)
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
		})
	}

	db := planParityDB(t, capsAll(2, rq), 3)()
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
