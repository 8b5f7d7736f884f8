package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

func TestDiscoverWhereMatchesFilteredGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(3)
		data := randData(rng, 100+rng.Intn(200), m, 10)
		caps := capsAll(m, hidden.RQ)
		db := mkDB(t, data, caps, 1+rng.Intn(4), hidden.SumRank{})

		// Random two-ended filter on one attribute.
		attr := rng.Intn(m)
		lo, hi := rng.Intn(5), 5+rng.Intn(5)
		filter := query.Q{
			{Attr: attr, Op: query.GE, Value: lo},
			{Attr: attr, Op: query.LE, Value: hi},
		}
		res, err := Run(db, Request{Filter: filter}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var subset [][]int
		for _, tup := range data {
			if filter.Matches(tup) {
				subset = append(subset, tup)
			}
		}
		want := skyline.ComputeTuples(subset)
		if ok, diff := sameTupleSet(res.Skyline, want); !ok {
			t.Fatalf("trial %d filter %v: %s (got %d want %d)", trial, filter, diff, len(res.Skyline), len(want))
		}
	}
}

func TestDiscoverWhereEmptySubset(t *testing.T) {
	data := [][]int{{1, 1}, {2, 2}}
	db := mkDB(t, data, capsAll(2, hidden.RQ), 1, hidden.SumRank{})
	res, err := Run(db, Request{Filter: query.Q{{Attr: 0, Op: query.GE, Value: 100}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 0 {
		t.Fatalf("empty subset produced skyline %v", res.Skyline)
	}
}

func TestDiscoverWhereRejectsUnsupportedFilter(t *testing.T) {
	data := [][]int{{1, 1}}
	db := mkDB(t, data, []hidden.Capability{hidden.SQ, hidden.PQ}, 1, hidden.SumRank{})
	if _, err := Run(db, Request{Filter: query.Q{{Attr: 0, Op: query.GE, Value: 0}}}, Options{}); err == nil {
		t.Fatal(">= filter on an SQ attribute accepted")
	}
	if _, err := Run(db, Request{Filter: query.Q{{Attr: 1, Op: query.LT, Value: 5}}}, Options{}); err == nil {
		t.Fatal("< filter on a PQ attribute accepted")
	}
	if _, err := Run(db, Request{Filter: query.Q{{Attr: 7, Op: query.EQ, Value: 0}}}, Options{}); err == nil {
		t.Fatal("out-of-range filter attribute accepted")
	}
}

// TestDiscoverWhereNilFilterIsDiscover: an empty filter costs exactly
// what the paper's own dispatch (MQ-DB-SKY's) costs.
func TestDiscoverWhereNilFilterIsDiscover(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := randData(rng, 120, 2, 8)
	a, err := Run(mkDB(t, data, capsAll(2, hidden.RQ), 2, hidden.SumRank{}), Request{Filter: query.Q{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mqDBSky(mkDB(t, data, capsAll(2, hidden.RQ), 2, hidden.SumRank{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := sameTupleSet(a.Skyline, b.Skyline); !ok {
		t.Fatal(diff)
	}
	if a.Queries != b.Queries {
		t.Fatalf("nil filter changed cost: %d vs %d", a.Queries, b.Queries)
	}
}

func TestDiscoverWherePointInterface(t *testing.T) {
	// Pin one PQ attribute with an equality filter: the view becomes a
	// lower-dimensional discovery problem; results must match ground truth.
	rng := rand.New(rand.NewSource(62))
	data := randData(rng, 250, 3, 5)
	db := mkDB(t, data, capsAll(3, hidden.PQ), 2, hidden.SumRank{})
	filter := query.Q{{Attr: 2, Op: query.EQ, Value: 3}}
	res, err := Run(db, Request{Filter: filter}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var subset [][]int
	for _, tup := range data {
		if tup[2] == 3 {
			subset = append(subset, tup)
		}
	}
	want := skyline.ComputeTuples(subset)
	if ok, diff := sameTupleSet(res.Skyline, want); !ok {
		t.Fatalf("%s; skyline=%d want=%d", diff, len(res.Skyline), len(want))
	}
}

func TestFilteredViewDomains(t *testing.T) {
	data := [][]int{{0, 0}, {9, 9}}
	db := mkDB(t, data, capsAll(2, hidden.RQ), 1, hidden.SumRank{})
	fv := &filteredView{db: db, filter: query.Q{
		{Attr: 0, Op: query.GE, Value: 3},
		{Attr: 0, Op: query.LE, Value: 7},
	}}
	if got := fv.Domain(0); got != (query.Interval{Lo: 3, Hi: 7}) {
		t.Fatalf("filtered domain %v", got)
	}
	if got := fv.Domain(1); got != (query.Interval{Lo: 0, Hi: 9}) {
		t.Fatalf("unfiltered domain %v", got)
	}
	if fv.NumAttrs() != 2 || fv.K() != 1 || fv.Cap(0) != hidden.RQ {
		t.Fatal("passthroughs broken")
	}
}

func TestDiscoverWhereCostNoWorseThanFull(t *testing.T) {
	// A narrow filter should usually cost far less than full discovery;
	// at minimum it must never return tuples outside the filter.
	rng := rand.New(rand.NewSource(63))
	data := randData(rng, 400, 3, 20)
	db := mkDB(t, data, capsAll(3, hidden.RQ), 5, hidden.SumRank{})
	filter := query.Q{{Attr: 0, Op: query.LE, Value: 3}}
	res, err := Run(db, Request{Filter: filter}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Skyline {
		if !filter.Matches(s) {
			t.Fatalf("tuple %v escapes the filter", s)
		}
	}
	_ = fmt.Sprint()
}
