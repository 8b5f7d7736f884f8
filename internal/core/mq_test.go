package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// TestMQRangeOnlyPhaseWouldMissTuples reproduces §6.1's motivating
// counterexample: applying the range algorithm alone (point attributes set
// to "*") misses skyline tuples that are range-dominated but superior on a
// point attribute — and MQ-DB-SKY's point phase recovers exactly those.
func TestMQRangeOnlyPhaseWouldMissTuples(t *testing.T) {
	// A0 is RQ, A1 is PQ. u = (5, 0) is range-dominated by s = (1, 3)
	// (1 < 5) but beats it on the point attribute, so u is on the skyline.
	data := [][]int{
		{1, 3},
		{5, 0},
		{7, 5},
	}
	caps := []hidden.Capability{hidden.RQ, hidden.PQ}
	db := mkDB(t, data, caps, 1, hidden.AttrRank{Attr: 0})
	res, err := mqDBSky(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := skyline.ComputeTuples(data) // {1,3} and {5,0}
	if ok, diff := sameTupleSet(res.Skyline, want); !ok {
		t.Fatalf("%s", diff)
	}

	// The pure range phase alone (RQ over A0 with A1 free) returns only
	// the range-minimal tuple: demonstrate the gap the point phase closes.
	spy := &spyDB{DB: mkDB(t, data, caps, 1, hidden.AttrRank{Attr: 0})}
	c := newCtx(spy, Options{})
	w := newTreeWalker(c, nil, []int{0}, true)
	if err := w.run(nil); err != nil {
		t.Fatal(err)
	}
	if len(c.sky) != 1 || fmt.Sprint(c.sky[0]) != "[1 3]" {
		t.Fatalf("range phase found %v, expected only [1 3]", c.sky)
	}
}

func TestMQSkippableCombo(t *testing.T) {
	pqA := []int{1, 2}
	phase1 := [][]int{
		{0, 2, 3},
		{1, 1, 4},
	}
	combo := func(v1, v2 int) query.Q {
		return query.Q{
			{Attr: 1, Op: query.EQ, Value: v1},
			{Attr: 2, Op: query.EQ, Value: v2},
		}
	}
	// (2,4): every phase-1 tuple is <= on both point attributes: skip.
	if !mqSkippableCombo(combo(2, 4), pqA, phase1) {
		t.Error("(2,4) should be skippable")
	}
	// (0,9): beats both phase-1 tuples on A1: must be explored.
	if mqSkippableCombo(combo(0, 9), pqA, phase1) {
		t.Error("(0,9) must not be skipped")
	}
	// (1,3): beats {1,1,4} on A2 (3 < 4): must be explored.
	if mqSkippableCombo(combo(1, 3), pqA, phase1) {
		t.Error("(1,3) must not be skipped")
	}
}

// TestMQEq17Pruning verifies that the point-phase probes carry the
// "A_j >= min_S t[A_j]" bounds on two-ended range attributes (eq. 17) and
// never use ">=" on one-ended ones. The bound only bites when the
// advertised domain is looser than the data (as real search forms are):
// against tight observed domains, min_S t[A_j] IS the advertised minimum.
func TestMQEq17Pruning(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	data := randData(rng, 150, 3, 6)
	for i := range data {
		data[i][0] += 2 // data occupies [2,7] while the form advertises [0,9]
	}
	inner, err := hidden.New(hidden.Config{
		Data: data,
		Caps: []hidden.Capability{hidden.RQ, hidden.SQ, hidden.PQ},
		K:    2,
		Domains: []query.Interval{
			{Lo: 0, Hi: 9}, {Lo: 0, Hi: 9}, {Lo: 0, Hi: 9},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyDB{DB: inner}
	res, err := mqDBSky(spy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst := skyline.ComputeTuples(data)
	if ok, diff := sameTupleSet(res.Skyline, checkAgainst); !ok {
		t.Fatal(diff)
	}
	sawEq17 := false
	for _, q := range spy.queries {
		hasPointEq := false
		for _, p := range q {
			if p.Attr == 2 && p.Op == query.EQ {
				hasPointEq = true
			}
		}
		for _, p := range q {
			if p.Attr == 1 && (p.Op == query.GE || p.Op == query.GT) {
				t.Fatalf("illegal >= on SQ attribute: %v", q)
			}
			if hasPointEq && p.Attr == 0 && p.Op == query.GE {
				sawEq17 = true
			}
		}
	}
	if !sawEq17 {
		t.Error("no point-phase probe carried the eq. 17 range bound")
	}
}

// TestMQHierarchicalProbePruning: an empty prefix probe must prune the
// entire completion sub-lattice — verified by counting probes on a
// database where one point value is unoccupied.
func TestMQHierarchicalProbePruning(t *testing.T) {
	// A1 (PQ) takes values {0, 2} only; value 1 is a hole. A2 (PQ) has 4
	// values. The probe A1=1 returns empty, so no A1=1 ∧ A2=v probe may
	// ever be issued.
	rng := rand.New(rand.NewSource(81))
	var data [][]int
	for i := 0; i < 120; i++ {
		v1 := []int{0, 2}[rng.Intn(2)]
		data = append(data, []int{rng.Intn(8), v1, rng.Intn(4)})
	}
	caps := []hidden.Capability{hidden.RQ, hidden.PQ, hidden.PQ}
	spy := &spyDB{DB: mkDB(t, data, caps, 2, hidden.SumRank{})}
	if _, err := mqDBSky(spy, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range spy.queries {
		pinsHole := false
		pinsDeeper := false
		for _, p := range q {
			if p.Attr == 1 && p.Op == query.EQ && p.Value == 1 {
				pinsHole = true
			}
			if p.Attr == 2 && p.Op == query.EQ {
				pinsDeeper = true
			}
		}
		if pinsHole && pinsDeeper {
			t.Fatalf("probe below an empty prefix was issued: %v", q)
		}
	}
}

// TestMQCellResolution: a cell whose probe overflows is resolved by the
// range-phase tree restricted to the cell; all its skyline tuples must
// surface.
func TestMQCellResolution(t *testing.T) {
	// One point value (A1=0) hosts many mutually incomparable tuples on
	// the range attribute pair — the cell must be fully resolved.
	var data [][]int
	for i := 0; i < 12; i++ {
		data = append(data, []int{i, 0, 11 - i})
	}
	data = append(data, []int{0, 1, 0}) // range-phase favourite
	caps := []hidden.Capability{hidden.RQ, hidden.PQ, hidden.RQ}
	db := mkDB(t, data, caps, 1, hidden.LexRank{Priority: []int{1, 0, 2}})
	res, err := mqDBSky(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := sameTupleSet(res.Skyline, skyline.ComputeTuples(data)); !ok {
		t.Fatal(diff)
	}
}

// TestMQDegenerateDispatch: every pure interface goes to its specialist.
func TestMQDegenerateDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	data := randData(rng, 100, 2, 8)
	for _, tc := range []struct {
		caps []hidden.Capability
	}{
		{capsAll(2, hidden.SQ)},
		{capsAll(2, hidden.RQ)},
		{capsAll(2, hidden.PQ)},
	} {
		a, err := mqDBSky(mkDB(t, data, tc.caps, 3, hidden.SumRank{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := skyline.ComputeTuples(data)
		if ok, diff := sameTupleSet(a.Skyline, want); !ok {
			t.Fatalf("caps %v: %s", tc.caps, diff)
		}
	}
}

// TestMQStress: larger randomized mixes across every ranking, checked
// against ground truth — the MQ integration safety net.
func TestMQStress(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	allCaps := []hidden.Capability{hidden.SQ, hidden.RQ, hidden.PQ}
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(4)
		caps := make([]hidden.Capability, m)
		hasPQ, hasRange := false, false
		for i := range caps {
			caps[i] = allCaps[rng.Intn(3)]
			if caps[i] == hidden.PQ {
				hasPQ = true
			} else {
				hasRange = true
			}
		}
		if !hasPQ || !hasRange {
			continue // pure cases covered elsewhere
		}
		domain := 3 + rng.Intn(6)
		data := randData(rng, 50+rng.Intn(250), m, domain)
		rk := testRankings[rng.Intn(len(testRankings))]
		db := mkDB(t, data, caps, 1+rng.Intn(4), rk.rank)
		res, err := mqDBSky(db, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ok, diff := sameTupleSet(res.Skyline, skyline.ComputeTuples(data)); !ok {
			t.Fatalf("trial %d caps=%v rank=%s: %s", trial, caps, rk.name, diff)
		}
	}
}

// TestMQBudgetAnytime: interrupting MQ-DB-SKY mid-run yields only genuine
// skyline tuples.
func TestMQBudgetAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	data := randData(rng, 400, 3, 8)
	caps := []hidden.Capability{hidden.RQ, hidden.RQ, hidden.PQ}
	truth := tupleSet(skyline.ComputeTuples(data))
	for _, budget := range []int{2, 10, 50} {
		db := mkDB(t, data, caps, 2, hidden.SumRank{})
		res, _ := mqDBSky(db, Options{MaxQueries: budget})
		for _, s := range res.Skyline {
			if !truth[fmt.Sprint(s)] {
				t.Fatalf("budget %d: non-skyline tuple %v in partial result", budget, s)
			}
		}
	}
}
