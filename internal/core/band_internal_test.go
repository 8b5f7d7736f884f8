package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

func TestBandCollectorDedup(t *testing.T) {
	var bc bandCollector
	bc.add([][]int{{1, 2}, {3, 4}})
	bc.add([][]int{{1, 2}, {5, 6}})
	if len(bc.tuples) != 3 {
		t.Fatalf("collector holds %d tuples, want 3", len(bc.tuples))
	}
}

func TestBandCollectorFinish(t *testing.T) {
	bc := bandCollector{k: 2}
	bc.add([][]int{
		{0, 0}, // dominates the others
		{1, 1}, // dominated by 1
		{2, 2}, // dominated by 2
	})
	res := bc.finish(42, true)
	if res.Queries != 42 || !res.Complete {
		t.Fatal("metadata lost")
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("2-band of chain has %d tuples", len(res.Tuples))
	}
	for i, c := range res.Counts {
		if c != i {
			t.Fatalf("counts %v", res.Counts)
		}
	}
}

func TestBandLevelOneEqualsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	data := uniqueData(rng, 80, 3, 9)
	want := skyline.ComputeTuples(data)

	rq, err := rqBandSky(mkDB(t, data, capsAll(3, hidden.RQ), 3, hidden.SumRank{}), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := sameTupleSet(rq.Tuples, want); !ok {
		t.Fatalf("RQ band-1: %s", diff)
	}
	pq, err := pqBandSky(mkDB(t, data, capsAll(3, hidden.PQ), 3, hidden.SumRank{}), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := sameTupleSet(pq.Tuples, want); !ok {
		t.Fatalf("PQ band-1: %s", diff)
	}
	sqBandDB := &spyDB{DB: mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{})}
	sq, err := sqBandSky(sqBandDB, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sq.Complete {
		t.Fatal("SQ band-1 must always complete (it is SQ-DB-SKY)")
	}
	if ok, diff := sameTupleSet(sq.Tuples, want); !ok {
		t.Fatalf("SQ band-1: %s", diff)
	}
	sqDB := &spyDB{DB: mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{})}
	if _, err := sqDBSky(sqDB, Options{}); err != nil {
		t.Fatal(err)
	}
	if diff := queryOrderDiff(sqBandDB.queries, sqDB.queries); diff != "" {
		t.Fatalf("SQ band-1 query sequence differs from SQ-DB-SKY's: %s", diff)
	}
}

func TestBandValidation(t *testing.T) {
	data := [][]int{{1, 2}, {2, 1}}
	rqDB := mkDB(t, data, capsAll(2, hidden.RQ), 1, hidden.SumRank{})
	if _, err := rqBandSky(rqDB, 0, Options{}); err == nil {
		t.Error("K=0 accepted")
	}
	mixed := mkDB(t, data, []hidden.Capability{hidden.RQ, hidden.SQ}, 1, hidden.SumRank{})
	if _, err := rqBandSky(mixed, 2, Options{}); err == nil {
		t.Error("RQBandSky accepted a non-RQ attribute")
	}
	if _, err := pqBandSky(rqDB, 2, Options{}); err == nil {
		t.Error("PQBandSky accepted a non-PQ interface")
	}
	pqDB := mkDB(t, data, capsAll(2, hidden.PQ), 1, hidden.SumRank{})
	if _, err := pqBandSky(pqDB, 0, Options{}); err == nil {
		t.Error("PQ K=0 accepted")
	}
	if _, err := sqBandSky(rqDB, 0, Options{}); err == nil {
		t.Error("SQ K=0 accepted")
	}
}

// The RQ band queries must honour the domination-subspace construction:
// every issued query in a level >= 2 sub-run pins a prefix with equality
// and bounds the pivot attribute from below strictly.
func TestRQBandSubspaceQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := uniqueData(rng, 40, 2, 7)
	spy := &spyDB{DB: mkDB(t, data, capsAll(2, hidden.RQ), 2, hidden.SumRank{})}
	if _, err := rqBandSky(spy, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	sawStrict := false
	for _, q := range spy.queries {
		for _, p := range q {
			if p.Op == query.GT {
				sawStrict = true
			}
		}
	}
	if !sawStrict {
		t.Error("no strict lower bound issued: domination subspaces not visited")
	}
}

// A 1D PQ band enumerates values best-first and stops at K tuples.
func TestPQBand1D(t *testing.T) {
	data := [][]int{{4}, {1}, {7}, {2}, {9}}
	db := mkDB(t, data, capsAll(1, hidden.PQ), 1, hidden.SumRank{})
	res, err := pqBandSky(db, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1}, {2}, {4}}
	if ok, diff := sameTupleSet(res.Tuples, want); !ok {
		t.Fatalf("%s (got %v)", diff, res.Tuples)
	}
}

// Budget interruptions surface ErrBudget with partial-but-sound content.
func TestBandBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	data := uniqueData(rng, 120, 3, 8)
	counts := skyline.DominationCount(data)
	inBand := map[string]bool{}
	for i, c := range counts {
		if c < 2 {
			inBand[fmt.Sprint(data[i])] = true
		}
	}
	for name, run := range map[string]func() (BandResult, error){
		"rq": func() (BandResult, error) {
			return rqBandSky(mkDB(t, data, capsAll(3, hidden.RQ), 3, hidden.SumRank{}), 2, Options{MaxQueries: 6})
		},
		"pq": func() (BandResult, error) {
			return pqBandSky(mkDB(t, data, capsAll(3, hidden.PQ), 3, hidden.SumRank{}), 2, Options{MaxQueries: 6})
		},
	} {
		res, err := run()
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("%s: want ErrBudget, got %v", name, err)
		}
		if res.Complete {
			t.Fatalf("%s: budgeted run marked complete", name)
		}
		for _, tup := range res.Tuples {
			if !inBand[fmt.Sprint(tup)] {
				t.Fatalf("%s: partial result has non-band tuple %v", name, tup)
			}
		}
	}
}

// SQ band completeness improves with k, as §7.2 argues: with k >= K the
// top of the tree can always branch; with k = 1 the run must immediately
// mark itself partial on any non-trivial database.
func TestSQBandCompletenessVsK(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	data := uniqueData(rng, 100, 2, 12)
	lowK, err := sqBandSky(mkDB(t, data, capsAll(2, hidden.SQ), 1, hidden.SumRank{}), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lowK.Complete {
		t.Fatal("k=1 three-band claims completeness (cannot prove domination counts)")
	}
	highK, err := sqBandSky(mkDB(t, data, capsAll(2, hidden.SQ), 25, hidden.SumRank{}), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(highK.Tuples) < len(lowK.Tuples) {
		t.Fatalf("larger k found fewer band tuples: %d < %d", len(highK.Tuples), len(lowK.Tuples))
	}
}

// The PQ band at K=2 must find second-layer tuples hidden directly behind
// skyline tuples in the same column — the pruning-rule relaxation at work.
func TestPQBandSecondLayerBehindSkyline(t *testing.T) {
	data := [][]int{
		{0, 5}, {1, 3}, {3, 0}, // skyline staircase
		{1, 4}, // directly behind (1,3): band-2
		{3, 1}, // directly behind (3,0): band-2
		{4, 4}, // dominated by (1,3) and (1,4): band-3
	}
	db := mkDB(t, data, capsAll(2, hidden.PQ), 2, hidden.SumRank{})
	res, err := pqBandSky(db, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := tupleSet(res.Tuples)
	for _, want := range [][]int{{0, 5}, {1, 3}, {3, 0}, {1, 4}, {3, 1}} {
		if !got[fmt.Sprint(want)] {
			t.Fatalf("missing band tuple %v: %v", want, res.Tuples)
		}
	}
	if got[fmt.Sprint([]int{4, 4})] {
		t.Fatalf("band-3 tuple leaked into 2-band: %v", res.Tuples)
	}
}
