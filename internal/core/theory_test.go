package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/analysis"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// spyDB wraps a hidden database and records every query and answer.
type spyDB struct {
	*hidden.DB
	queries []query.Q
	answers []hidden.Result
}

func (s *spyDB) Query(q query.Q) (hidden.Result, error) {
	res, err := s.DB.Query(q)
	if err == nil {
		s.queries = append(s.queries, q.Clone())
		s.answers = append(s.answers, res)
	}
	return res, err
}

// SQ-DB-SKY §3.2: the top-1 answer of every issued query is a skyline
// tuple, because SQ queries are downward-closed under dominance.
func TestSQTopAnswersAreSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		data := randData(rng, 150, 3, 12)
		truth := tupleSet(skyline.ComputeTuples(data))
		spy := &spyDB{DB: mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{})}
		if _, err := sqDBSky(spy, Options{}); err != nil {
			t.Fatal(err)
		}
		for i, res := range spy.answers {
			if len(res.Tuples) == 0 {
				continue
			}
			if !truth[fmt.Sprint(res.Tuples[0])] {
				t.Fatalf("query %v returned non-skyline top-1 %v", spy.queries[i], res.Tuples[0])
			}
		}
	}
}

// SQ-DB-SKY only ever issues predicates its interface supports.
func TestAlgorithmsRespectCapabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		caps []hidden.Capability
		algo func(Interface, Options) (Result, error)
	}{
		{capsAll(3, hidden.SQ), sqDBSky},
		{capsAll(3, hidden.RQ), rqDBSky},
		{capsAll(3, hidden.PQ), pqDBSky},
		{[]hidden.Capability{hidden.SQ, hidden.RQ, hidden.PQ}, mqDBSky},
	}
	for _, tc := range cases {
		data := randData(rng, 120, 3, 6)
		spy := &spyDB{DB: mkDB(t, data, tc.caps, 2, hidden.SumRank{})}
		if _, err := tc.algo(spy, Options{}); err != nil {
			t.Fatal(err)
		}
		for _, q := range spy.queries {
			for _, p := range q {
				if !tc.caps[p.Attr].Allows(p.Op) {
					t.Fatalf("caps %v: issued %v", tc.caps, q)
				}
			}
		}
	}
}

// RQ-DB-SKY §4: sibling branches are mutually exclusive, so no two issued
// R(q) answers can return the same previously-unseen tuple... more simply,
// the early-termination detection must never leave RQ costing more than a
// small factor of SQ on identical data, and with large skylines it must be
// strictly cheaper (Figure 6's claim).
func TestRQBeatsSQOnLargeSkylines(t *testing.T) {
	// Anti-correlated 4D data: large skyline. In two dimensions the SQ
	// branches partition the skyline exactly, so the gap only opens at
	// higher dimensionality, where a skyline tuple matches several
	// branches and SQ-DB-SKY re-returns it; RQ-DB-SKY's mutually
	// exclusive R(q) queries are immune — the Figure 6 gap.
	d := make([][]int, 400)
	rng := rand.New(rand.NewSource(22))
	for i := range d {
		a, c := rng.Intn(32), rng.Intn(32)
		d[i] = []int{
			a, 31 - a + rng.Intn(5),
			c, 31 - c + rng.Intn(5),
		}
	}
	sqRes, err := sqDBSky(mkDB(t, d, capsAll(4, hidden.SQ), 1, hidden.AdversarialRank{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rqRes, err := rqDBSky(mkDB(t, d, capsAll(4, hidden.RQ), 1, hidden.AdversarialRank{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rqRes.Skyline) < 40 {
		t.Fatalf("test data should have a large skyline, got %d", len(rqRes.Skyline))
	}
	if rqRes.Queries >= sqRes.Queries {
		t.Fatalf("RQ (%d) should beat SQ (%d) when |S|=%d", rqRes.Queries, sqRes.Queries, len(rqRes.Skyline))
	}
}

// The paper's k-effect (§3.1, Figure 13): a larger k never hurts and
// eventually helps, because answers carry more tuples and nodes become
// leaves earlier.
func TestLargerKReducesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randData(rng, 600, 3, 40)
	prev := -1
	for _, k := range []int{1, 5, 25, 100} {
		res, err := rqDBSky(mkDB(t, data, capsAll(3, hidden.RQ), k, hidden.SumRank{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && res.Queries > prev*2 {
			t.Fatalf("k=%d cost %d regressed badly from %d", k, res.Queries, prev)
		}
		prev = res.Queries
	}
	small, _ := rqDBSky(mkDB(t, data, capsAll(3, hidden.RQ), 1, hidden.SumRank{}), Options{})
	large, _ := rqDBSky(mkDB(t, data, capsAll(3, hidden.RQ), 100, hidden.SumRank{}), Options{})
	if large.Queries > small.Queries {
		t.Fatalf("k=100 (%d queries) should not cost more than k=1 (%d)", large.Queries, small.Queries)
	}
}

// PQ-2D-SKY §5.1: equation (11) — the sum of per-gap minima along the
// skyline staircase — lower-bounds any complete discovery, and the
// rectangle-level shorter-side rule stays within a small factor of it
// (it can pay the longer side of a gap whose orientation disagrees with
// the enclosing rectangle's, hence not always exactly eq. 11).
func TestPQ2DCostMatchesEquation11(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		domain := 6 + rng.Intn(30)
		n := 5 + rng.Intn(120)
		data := make([][]int, n)
		for i := range data {
			data[i] = []int{rng.Intn(domain), rng.Intn(domain)}
		}
		db := mkDB(t, data, capsAll(2, hidden.PQ), 1, hidden.SumRank{})
		res, err := pq2DSky(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sky := skyline.ComputeTuples(data)
		// Deduplicate values for the staircase formula.
		uniq := map[string][]int{}
		for _, s := range sky {
			uniq[fmt.Sprint(s)] = s
		}
		stairs := make([][]int, 0, len(uniq))
		for _, s := range uniq {
			stairs = append(stairs, s)
		}
		lo0, hi0 := db.Domain(0).Lo, db.Domain(0).Hi
		lo1, hi1 := db.Domain(1).Lo, db.Domain(1).Hi
		want, err := analysis.PQ2DCost(stairs, lo0, hi0, lo1, hi1)
		if err != nil {
			t.Fatalf("trial %d: %v (skyline %v)", trial, err, stairs)
		}
		got := res.Queries - 1 // exclude the SELECT * seed
		if got < want {
			t.Fatalf("trial %d (domain=%d n=%d |S|=%d): %d queries beat the eq(11) lower bound %d",
				trial, domain, n, len(stairs), got, want)
		}
		if got > 2*want+2 {
			t.Fatalf("trial %d (domain=%d n=%d |S|=%d): %d queries, eq(11) optimum %d",
				trial, domain, n, len(stairs), got, want)
		}
	}
}

// Theorem 1's adversarial construction: m spoiler tuples force
// fully-specified queries. Verify our SQ algorithm still discovers the
// skyline (cost may be large; correctness is what matters here).
func TestTheorem1Construction(t *testing.T) {
	const m, h = 3, 4
	var data [][]int
	// Spoilers t0_i: 0 everywhere except h+1 at position i.
	for i := 0; i < m; i++ {
		tup := make([]int, m)
		tup[i] = h + 1
		data = append(data, tup)
	}
	// Interior tuples with values in [1, h].
	rng := rand.New(rand.NewSource(25))
	for len(data) < 20 {
		tup := make([]int, m)
		for j := range tup {
			tup[j] = 1 + rng.Intn(h)
		}
		data = append(data, tup)
	}
	db := mkDB(t, data, capsAll(m, hidden.SQ), 1, hidden.AdversarialRank{})
	checkSkyline(t, db, sqDBSky, "theorem1-construction")
}

// Filtering attributes (§2.1): appending a filter predicate to every query
// discovers the skyline of the filtered subset. We emulate by projecting —
// the library treats filter columns as pass-through strings, so here we
// check they do not perturb discovery.
func TestFilterColumnsDoNotPerturbDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := randData(rng, 150, 3, 10)
	filters := make([][]string, len(data))
	for i := range filters {
		filters[i] = []string{fmt.Sprintf("F%d", rng.Intn(5))}
	}
	db, err := hidden.New(hidden.Config{
		Data: data, Caps: capsAll(3, hidden.RQ), K: 3, Filters: filters,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSkyline(t, db, rqDBSky, "with-filters")
}

// The SkipProvablyEmpty optimization must never change the result set.
func TestSkipEmptyPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 10; trial++ {
		data := randData(rng, 100, 3, 6)
		caps := capsAll(3, hidden.PQ)
		a, err := pqDBSky(mkDB(t, data, caps, 2, hidden.SumRank{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := pqDBSky(mkDB(t, data, caps, 2, hidden.SumRank{}), Options{SkipProvablyEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameTupleSet(a.Skyline, b.Skyline); !ok {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}
