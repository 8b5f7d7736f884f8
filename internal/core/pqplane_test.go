package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/skyline"
)

// planeFixture builds a plane over a small 2D PQ database.
func planeFixture(t *testing.T, data [][]int, k int) (*plane, *ctx, *hidden.DB) {
	t.Helper()
	db := mkDB(t, data, capsAll(2, hidden.PQ), k, hidden.SumRank{})
	c := newCtx(db, Options{})
	return newPlane(c, 0, 1, nil), c, db
}

func TestPlaneBands(t *testing.T) {
	data := [][]int{{0, 0}, {5, 5}} // domains [0,5] x [0,5]
	p, _, _ := planeFixture(t, data, 1)
	bs := p.bands()
	if len(bs) != 1 || bs[0].xa != 0 || bs[0].xb != 5 || bs[0].lo != 0 || bs[0].hi != 5 {
		t.Fatalf("initial bands %+v", bs)
	}
	// Pruning the lower-left corner splits the column intervals.
	p.pruneEmptyRect(2, 3)
	bs = p.bands()
	if len(bs) != 2 {
		t.Fatalf("bands after prune: %+v", bs)
	}
	if bs[0].xa != 0 || bs[0].xb != 2 || bs[0].lo != 4 {
		t.Fatalf("left band %+v", bs[0])
	}
	if bs[1].xa != 3 || bs[1].lo != 0 {
		t.Fatalf("right band %+v", bs[1])
	}
	// Dominated pruning caps the right band's rows.
	p.pruneDominatedRect(4, 2)
	bs = p.bands()
	last := bs[len(bs)-1]
	if last.xa != 4 || last.hi != 1 {
		t.Fatalf("dominated band %+v", last)
	}
}

func TestPlaneBandGeometry(t *testing.T) {
	b := band{xa: 2, xb: 5, lo: 1, hi: 3}
	if b.width() != 4 || b.height() != 3 {
		t.Fatalf("band geometry %d x %d", b.width(), b.height())
	}
}

func TestPlaneColumnQueryResolves(t *testing.T) {
	data := [][]int{{0, 4}, {1, 2}, {2, 0}, {4, 4}}
	p, c, db := planeFixture(t, data, 1)
	if err := p.columnQuery(1); err != nil {
		t.Fatal(err)
	}
	// Column 1 resolved; tuple (1,2) found; cells x>=2, y>=2 dominated.
	if lo, hi := p.candLo[p.col(1)], p.candHi[p.col(1)]; lo <= hi {
		t.Fatalf("column 1 not resolved: [%d,%d]", lo, hi)
	}
	if p.candHi[p.col(3)] != 1 {
		t.Fatalf("domination prune missing: candHi[3]=%d", p.candHi[p.col(3)])
	}
	if len(p.found) != 1 || fmt.Sprint(p.found[0]) != "[1 2]" {
		t.Fatalf("found %v", p.found)
	}
	if db.QueriesIssued() != 1 || c.queries != 1 {
		t.Fatal("query accounting")
	}

	// Empty column: resolves with no other effect.
	before := append([]int(nil), p.candHi...)
	if err := p.columnQuery(3); err != nil {
		t.Fatal(err)
	}
	if p.candLo[p.col(3)] <= p.candHi[p.col(3)] {
		t.Fatal("empty column not resolved")
	}
	for x := 0; x <= 2; x++ {
		if p.candHi[p.col(x)] != before[p.col(x)] {
			t.Fatal("empty column changed other columns")
		}
	}
}

func TestPlaneRowQueryResolvesRow(t *testing.T) {
	data := [][]int{{3, 0}, {1, 2}, {4, 1}}
	p, _, _ := planeFixture(t, data, 1)
	if err := p.rowQuery(0); err != nil {
		t.Fatal(err)
	}
	// Row 0's minimum x is 3: cells (x<3, 0) provably empty, row resolved,
	// and (x>=3, y>=1) dominated.
	for x := p.x0; x <= p.x1; x++ {
		if p.candLo[p.col(x)] == 0 && p.candHi[p.col(x)] >= 0 && p.candLo[p.col(x)] == 0 {
			// Row 0 must no longer be the candidate bottom of any column
			// unless the whole column was already resolved.
			if p.candLo[p.col(x)] == 0 && p.candLo[p.col(x)] <= p.candHi[p.col(x)] {
				t.Fatalf("row 0 still candidate in column %d", x)
			}
		}
	}
	if p.candHi[p.col(4)] != 0 {
		t.Fatalf("dominated prune after row query: candHi[4]=%d", p.candHi[p.col(4)])
	}
}

func TestPlaneDropRowBoundary(t *testing.T) {
	data := [][]int{{0, 0}, {3, 3}}
	p, _, _ := planeFixture(t, data, 1)
	p.dropRowBoundary(1, 0) // at candLo: shrink
	if p.candLo[p.col(1)] != 1 {
		t.Fatal("boundary drop at lo failed")
	}
	p.dropRowBoundary(1, 3) // at candHi: shrink
	if p.candHi[p.col(1)] != 2 {
		t.Fatal("boundary drop at hi failed")
	}
	p.dropRowBoundary(1, 2) // interior: representable only as no-op... 2 == candHi now
	if p.candHi[p.col(1)] != 1 {
		t.Fatal("second hi drop failed")
	}
	p.dropRowBoundary(1, 1) // interval collapses
	p.dropRowBoundary(1, 1) // empty: no-op, no panic
}

func TestPlaneCellFallback(t *testing.T) {
	// k=1 interface but band level 3: the fallback must enumerate cells.
	data := [][]int{{2, 0}, {2, 1}, {2, 4}, {2, 6}, {0, 7}, {4, 7}}
	db := mkDB(t, data, capsAll(2, hidden.PQ), 1, hidden.SumRank{})
	c := newCtx(db, Options{})
	p := newPlane(c, 0, 1, nil)
	p.h = 3
	if err := p.columnQuery(2); err != nil {
		t.Fatal(err)
	}
	// Column 2 holds rows 0,1,4,6; the 3 best are 0,1,4.
	keys := tupleSet(p.found)
	for _, want := range [][]int{{2, 0}, {2, 1}, {2, 4}} {
		if !keys[fmt.Sprint(want)] {
			t.Fatalf("fallback missed %v; found %v", want, p.found)
		}
	}
	if keys[fmt.Sprint([]int{2, 6})] {
		t.Fatalf("fallback fetched beyond band level: %v", p.found)
	}
	// Cross-column pruning uses the 3rd best row (y=4).
	if p.candHi[p.col(4)] != 3 {
		t.Fatalf("band prune wrong: candHi[4]=%d", p.candHi[p.col(4)])
	}
}

func TestPlaneRunTerminatesOnEmptyDomain(t *testing.T) {
	data := [][]int{{0, 0}}
	p, _, _ := planeFixture(t, data, 1)
	p.pruneDominatedRect(0, 0) // prune everything
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	if len(p.found) != 0 {
		t.Fatalf("found %v in fully pruned plane", p.found)
	}
}

// Exhaustive safety net: on every tiny 2D database, pq2dRun finds the full
// skyline with any k and never issues unsupported predicates.
func TestPQ2DExhaustiveTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(12)
		domain := 1 + rng.Intn(5)
		data := make([][]int, n)
		for i := range data {
			data[i] = []int{rng.Intn(domain), rng.Intn(domain)}
		}
		k := 1 + rng.Intn(3)
		db := mkDB(t, data, capsAll(2, hidden.PQ), k, hidden.SumRank{})
		res, err := pq2DSky(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameTupleSet(res.Skyline, skyline.ComputeTuples(data)); !ok {
			t.Fatalf("trial %d (n=%d dom=%d k=%d): %s", trial, n, domain, k, diff)
		}
	}
}

// The subspace pruning rules must never delete a cell that holds an
// undiscovered skyline tuple: exercised through full PQDBSky runs on 3D
// grids with every ranking.
func TestPQSubspacePruningSound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, rk := range testRankings {
		for trial := 0; trial < 10; trial++ {
			data := randData(rng, 60+rng.Intn(100), 3, 4)
			db := mkDB(t, data, capsAll(3, hidden.PQ), 2, rk.rank)
			res, err := pqDBSky(db, Options{})
			if err != nil {
				t.Fatalf("%s: %v", rk.name, err)
			}
			if ok, diff := sameTupleSet(res.Skyline, skyline.ComputeTuples(data)); !ok {
				t.Fatalf("%s trial %d: %s", rk.name, trial, diff)
			}
		}
	}
}

func TestWidestAttrsSelection(t *testing.T) {
	data := [][]int{{0, 0, 0, 0}, {2, 9, 4, 1}}
	db := mkDB(t, data, capsAll(4, hidden.PQ), 1, hidden.SumRank{})
	c := newCtx(db, Options{})
	d1, d2 := widestAttrs(c)
	// Domains: 3, 10, 5, 2 -> widest are attributes 1 and 2.
	if d1 != 1 || d2 != 2 {
		t.Fatalf("widest attrs (%d,%d), want (1,2)", d1, d2)
	}
}

func TestEnumerateCombosOrder(t *testing.T) {
	data := [][]int{{0, 0, 0}, {1, 2, 1}}
	db := mkDB(t, data, capsAll(3, hidden.PQ), 1, hidden.SumRank{})
	c := newCtx(db, Options{})
	var seen [][]int
	err := enumerateCombos(c, []int{1, 2}, func(vc []int) error {
		seen = append(seen, append([]int(nil), vc...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A1 in [0,2], A2 in [0,1]: 6 combos in ascending lexicographic order.
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	if len(seen) != len(want) {
		t.Fatalf("%d combos, want %d", len(seen), len(want))
	}
	for i := range want {
		if fmt.Sprint(seen[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("combo %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestPQ1D(t *testing.T) {
	data := [][]int{{7}, {3}, {9}, {3}}
	db := mkDB(t, data, capsAll(1, hidden.PQ), 1, hidden.SumRank{})
	res, err := pqDBSky(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skyline) != 1 || res.Skyline[0][0] != 3 {
		t.Fatalf("1D skyline %v", res.Skyline)
	}
}

func TestPQ2DRejectsWrongDims(t *testing.T) {
	data := [][]int{{1, 2, 3}}
	db := mkDB(t, data, capsAll(3, hidden.PQ), 1, hidden.SumRank{})
	if _, err := pq2DSky(db, Options{}); err == nil {
		t.Fatal("3-attribute database accepted by the 2D algorithm")
	}
}

func TestPlaneFixedPredicatesIncluded(t *testing.T) {
	// In a 3D subspace, every plane query must pin the third attribute.
	data := randData(rand.New(rand.NewSource(44)), 80, 3, 4)
	spy := &spyDB{DB: mkDB(t, data, capsAll(3, hidden.PQ), 1, hidden.SumRank{})}
	if _, err := pqDBSky(spy, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, q := range spy.queries {
		if len(q) == 0 {
			continue // the SELECT * seed
		}
		if len(q) < 2 {
			t.Fatalf("query %d under-specified: %v", i, q)
		}
	}
}

// TestPaperSection52Construction encodes the paper's §5.2 example that
// proves no instance-optimal higher-dimensional PQ algorithm exists: five
// tuples (1,1,1), (2,2,2), (2,0,0), (0,2,0), (0,0,2) behind a top-2
// interface. Whatever query plan our (necessarily suboptimal) algorithm
// chooses, it must still discover the exact four-tuple skyline under every
// ranking function.
func TestPaperSection52Construction(t *testing.T) {
	base := [][]int{
		{1, 1, 1},
		{2, 2, 2},
		{2, 0, 0},
		{0, 2, 0},
		{0, 0, 2},
	}
	// Pad with dominated background tuples so the space is inhabited.
	rng := rand.New(rand.NewSource(52))
	data := append([][]int(nil), base...)
	for i := 0; i < 40; i++ {
		data = append(data, []int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)})
	}
	want := skyline.ComputeTuples(data) // {(1,1,1),(2,0,0),(0,2,0),(0,0,2)}
	if len(tupleSet(want)) != 4 {
		t.Fatalf("construction broken: skyline %v", want)
	}
	for _, rk := range testRankings {
		db := mkDB(t, data, capsAll(3, hidden.PQ), 2, rk.rank)
		res, err := pqDBSky(db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", rk.name, err)
		}
		if ok, diff := sameTupleSet(res.Skyline, want); !ok {
			t.Fatalf("%s: %s", rk.name, diff)
		}
	}
}

// TestPaperSection52SubspaceShapes reproduces the Figure 10 scenario: a 3D
// space where the SELECT * answer prunes a lower-left rectangle of the
// z = 0 plane without covering its upper-right counterpart. The subspace
// routine must still find the plane's skyline.
func TestPaperSection52SubspaceShapes(t *testing.T) {
	// Domains x in [0,6], y in [0,9], z in [0,1]; tuples modeled on the
	// paper's example: (4,6,1) is the global top answer, (0,9,0) tops the
	// z=0 plane, (5,0,0) hides deep in the plane.
	data := [][]int{
		{4, 6, 1},
		{0, 9, 0},
		{5, 0, 0},
		{6, 9, 1}, // fills out the domains
		{6, 9, 0},
	}
	want := skyline.ComputeTuples(data)
	for _, k := range []int{1, 2} {
		db := mkDB(t, data, capsAll(3, hidden.PQ), k, hidden.LexRank{Priority: []int{2, 0, 1}})
		res, err := pqDBSky(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameTupleSet(res.Skyline, want); !ok {
			t.Fatalf("k=%d: %s", k, diff)
		}
	}
}
