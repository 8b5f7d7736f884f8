package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/skyline"
)

// mkDB builds a hidden database for tests.
func mkDB(t testing.TB, data [][]int, caps []hidden.Capability, k int, rank hidden.Ranking) *hidden.DB {
	t.Helper()
	db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: k, Rank: rank})
	if err != nil {
		t.Fatalf("hidden.New: %v", err)
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

// randData draws n tuples over m attributes uniformly in [0, domain).
func randData(rng *rand.Rand, n, m, domain int) [][]int {
	data := make([][]int, n)
	for i := range data {
		t := make([]int, m)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		data[i] = t
	}
	return data
}

// uniqueData draws n distinct tuples (general positioning, as the paper
// assumes for sky-band discovery: duplicates are indistinguishable through
// a value-level interface).
func uniqueData(rng *rand.Rand, n, m, domain int) [][]int {
	seen := map[string]bool{}
	var data [][]int
	for len(data) < n {
		t := make([]int, m)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		k := fmt.Sprint(t)
		if !seen[k] {
			seen[k] = true
			data = append(data, t)
		}
	}
	return data
}

// tupleSet canonicalizes a tuple collection to a set of printable keys.
func tupleSet(ts [][]int) map[string]bool {
	set := make(map[string]bool, len(ts))
	for _, t := range ts {
		set[fmt.Sprint(t)] = true
	}
	return set
}

func sameTupleSet(a, b [][]int) (bool, string) {
	sa, sb := tupleSet(a), tupleSet(b)
	for k := range sa {
		if !sb[k] {
			return false, "extra tuple " + k
		}
	}
	for k := range sb {
		if !sa[k] {
			return false, "missing tuple " + k
		}
	}
	return true, ""
}

// checkSkyline runs algo on db and compares against the local ground truth.
func checkSkyline(t *testing.T, db *hidden.DB, algo func(Interface, Options) (Result, error), name string) Result {
	t.Helper()
	res, err := algo(db, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := skyline.ComputeTuples(db.GroundTruth())
	if ok, diff := sameTupleSet(res.Skyline, want); !ok {
		t.Fatalf("%s: wrong skyline (%s); got %d want %d tuples", name, diff, len(res.Skyline), len(want))
	}
	if !res.Complete {
		t.Fatalf("%s: result not marked complete", name)
	}
	if res.Queries != db.QueriesIssued() {
		t.Fatalf("%s: reported %d queries, interface served %d", name, res.Queries, db.QueriesIssued())
	}
	return res
}

var testRankings = []struct {
	name string
	rank hidden.Ranking
}{
	{"sum", hidden.SumRank{}},
	{"lex", hidden.LexRank{}},
	{"attr0", hidden.AttrRank{Attr: 0}},
	{"randext", hidden.RandomExtensionRank{Seed: 7}},
	{"adversarial", hidden.AdversarialRank{}},
}

func TestSQDBSkyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 3, 10} {
			for _, domain := range []int{4, 50} {
				for _, rk := range testRankings {
					n := 10 + rng.Intn(150)
					data := randData(rng, n, m, domain)
					db := mkDB(t, data, capsAll(m, hidden.SQ), k, rk.rank)
					name := fmt.Sprintf("SQ m=%d k=%d dom=%d rank=%s", m, k, domain, rk.name)
					checkSkyline(t, db, sqDBSky, name)
				}
			}
		}
	}
}

func TestRQDBSkyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 3, 10} {
			for _, domain := range []int{4, 50} {
				for _, rk := range testRankings {
					n := 10 + rng.Intn(150)
					data := randData(rng, n, m, domain)
					db := mkDB(t, data, capsAll(m, hidden.RQ), k, rk.rank)
					name := fmt.Sprintf("RQ m=%d k=%d dom=%d rank=%s", m, k, domain, rk.name)
					checkSkyline(t, db, rqDBSky, name)
				}
			}
		}
	}
}

func TestRQDBSkyMixedSQRQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(3)
		caps := make([]hidden.Capability, m)
		for i := range caps {
			if rng.Intn(2) == 0 {
				caps[i] = hidden.SQ
			} else {
				caps[i] = hidden.RQ
			}
		}
		data := randData(rng, 20+rng.Intn(120), m, 12)
		db := mkDB(t, data, caps, 1+rng.Intn(5), hidden.SumRank{})
		checkSkyline(t, db, rqDBSky, fmt.Sprintf("RQ-mixed trial=%d caps=%v", trial, caps))
	}
}

func TestPQ2DSkyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 2, 5} {
		for _, domain := range []int{3, 10, 40} {
			for _, rk := range testRankings {
				n := 5 + rng.Intn(150)
				data := randData(rng, n, 2, domain)
				db := mkDB(t, data, capsAll(2, hidden.PQ), k, rk.rank)
				name := fmt.Sprintf("PQ2D k=%d dom=%d rank=%s", k, domain, rk.name)
				checkSkyline(t, db, pq2DSky, name)
			}
		}
	}
}

func TestPQDBSkyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 3} {
			for _, rk := range testRankings {
				n := 10 + rng.Intn(200)
				data := randData(rng, n, m, 5)
				db := mkDB(t, data, capsAll(m, hidden.PQ), k, rk.rank)
				name := fmt.Sprintf("PQDB m=%d k=%d rank=%s", m, k, rk.name)
				checkSkyline(t, db, pqDBSky, name)
			}
		}
	}
}

func TestMQDBSkyRandomMixtures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	allCaps := []hidden.Capability{hidden.SQ, hidden.RQ, hidden.PQ}
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(3)
		caps := make([]hidden.Capability, m)
		for i := range caps {
			caps[i] = allCaps[rng.Intn(3)]
		}
		domain := 4 + rng.Intn(8)
		data := randData(rng, 20+rng.Intn(180), m, domain)
		rk := testRankings[rng.Intn(len(testRankings))]
		db := mkDB(t, data, caps, 1+rng.Intn(6), rk.rank)
		checkSkyline(t, db, mqDBSky, fmt.Sprintf("MQ trial=%d caps=%v rank=%s", trial, caps, rk.name))
	}
}

func TestDiscoverDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, caps := range [][]hidden.Capability{
		{hidden.SQ, hidden.SQ},
		{hidden.RQ, hidden.RQ},
		{hidden.PQ, hidden.PQ},
		{hidden.SQ, hidden.RQ},
		{hidden.RQ, hidden.PQ},
		{hidden.SQ, hidden.PQ},
		{hidden.SQ, hidden.RQ, hidden.PQ},
	} {
		data := randData(rng, 80, len(caps), 8)
		db := mkDB(t, data, caps, 3, hidden.SumRank{})
		checkSkyline(t, db, Discover, fmt.Sprintf("Discover caps=%v", caps))
	}
}

func TestPaperRunningExample(t *testing.T) {
	// Figure 2's dummy example: t4 dominates nothing and is dominated by
	// nobody; skyline = {t3, t4} ∪ {t1? t2?} — verify against ground truth
	// and check all algorithms agree on every interface type.
	data := [][]int{
		{5, 1, 9},
		{4, 4, 8},
		{1, 3, 7},
		{3, 2, 3},
	}
	want := skyline.ComputeTuples(data)
	for _, tc := range []struct {
		name string
		caps []hidden.Capability
		algo func(Interface, Options) (Result, error)
	}{
		{"SQ", capsAll(3, hidden.SQ), sqDBSky},
		{"RQ", capsAll(3, hidden.RQ), rqDBSky},
		{"PQ", capsAll(3, hidden.PQ), pqDBSky},
		{"MQ", []hidden.Capability{hidden.SQ, hidden.RQ, hidden.PQ}, mqDBSky},
	} {
		db := mkDB(t, data, tc.caps, 1, hidden.SumRank{})
		res, err := tc.algo(db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok, diff := sameTupleSet(res.Skyline, want); !ok {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}
}

func TestAnytimeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randData(rng, 400, 4, 30)
	full := skyline.ComputeTuples(data)
	fullSet := tupleSet(full)

	db := mkDB(t, data, capsAll(4, hidden.SQ), 2, hidden.SumRank{})
	ref, err := sqDBSky(db, Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, budget := range []int{1, 3, ref.Queries / 2} {
		db := mkDB(t, data, capsAll(4, hidden.SQ), 2, hidden.SumRank{})
		res, err := sqDBSky(db, Options{MaxQueries: budget})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: want ErrBudget, got %v", budget, err)
		}
		if res.Complete {
			t.Fatalf("budget %d: partial result marked complete", budget)
		}
		if res.Queries > budget {
			t.Fatalf("budget %d: issued %d queries", budget, res.Queries)
		}
		// Anytime property: every returned tuple is a true skyline tuple.
		for _, s := range res.Skyline {
			if !fullSet[fmt.Sprint(s)] {
				t.Fatalf("budget %d: partial result contains non-skyline tuple %v", budget, s)
			}
		}
	}
}

func TestRateLimitedInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randData(rng, 300, 3, 20)
	db, err := hidden.New(hidden.Config{
		Data: data, Caps: capsAll(3, hidden.RQ), K: 1, QueryLimit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rqDBSky(db, Options{})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget from rate limit, got %v", err)
	}
	if res.Complete {
		t.Fatal("rate-limited result marked complete")
	}
}

func TestTraceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := randData(rng, 250, 3, 25)
	db := mkDB(t, data, capsAll(3, hidden.RQ), 5, hidden.SumRank{})
	res, err := rqDBSky(db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty")
	}
	last := 0
	for _, ev := range res.Trace {
		if ev.Queries < last {
			t.Fatalf("trace not monotone: %d after %d", ev.Queries, last)
		}
		last = ev.Queries
		if len(ev.Tuple) != 3 {
			t.Fatalf("trace tuple has %d attrs", len(ev.Tuple))
		}
	}
	// Every final skyline tuple must appear in the trace.
	tr := make([][]int, len(res.Trace))
	for i, ev := range res.Trace {
		tr[i] = ev.Tuple
	}
	trSet := tupleSet(tr)
	for _, s := range res.Skyline {
		if !trSet[fmt.Sprint(s)] {
			t.Fatalf("skyline tuple %v missing from trace", s)
		}
	}
}

func TestSkipProvablyEmptyCostsNoMore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randData(rng, 150, 3, 10)
	run := func(skip bool) int {
		db := mkDB(t, data, capsAll(3, hidden.SQ), 1, hidden.SumRank{})
		res, err := sqDBSky(db, Options{SkipProvablyEmpty: skip})
		if err != nil {
			t.Fatal(err)
		}
		want := skyline.ComputeTuples(data)
		if ok, diff := sameTupleSet(res.Skyline, want); !ok {
			t.Fatalf("skip=%v: %s", skip, diff)
		}
		return res.Queries
	}
	with, without := run(true), run(false)
	if with > without {
		t.Fatalf("SkipProvablyEmpty increased cost: %d > %d", with, without)
	}
}

func TestBandAgainstGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, kBand := range []int{1, 2, 3} {
		for trial := 0; trial < 8; trial++ {
			m := 2 + rng.Intn(2)
			data := uniqueData(rng, 20+rng.Intn(40), m, 8)
			wantIdx := skyline.Skyband(data, kBand)
			want := make([][]int, len(wantIdx))
			for i, j := range wantIdx {
				want[i] = data[j]
			}

			// RQ band.
			db := mkDB(t, data, capsAll(m, hidden.RQ), 5, hidden.SumRank{})
			res, err := rqBandSky(db, kBand, Options{})
			if err != nil {
				t.Fatalf("RQBandSky: %v", err)
			}
			if !res.Complete {
				t.Fatal("RQBandSky: not complete")
			}
			if ok, diff := sameTupleSet(res.Tuples, want); !ok {
				t.Fatalf("RQBandSky K=%d m=%d: %s", kBand, m, diff)
			}

			// PQ band, k >= K fast path.
			db = mkDB(t, data, capsAll(m, hidden.PQ), 5, hidden.SumRank{})
			pres, err := pqBandSky(db, kBand, Options{})
			if err != nil {
				t.Fatalf("PQBandSky: %v", err)
			}
			if ok, diff := sameTupleSet(pres.Tuples, want); !ok {
				t.Fatalf("PQBandSky K=%d m=%d: %s", kBand, m, diff)
			}

			// PQ band with k < K exercises the 0D cell fallback.
			if kBand > 1 {
				db = mkDB(t, data, capsAll(m, hidden.PQ), kBand-1, hidden.SumRank{})
				pres, err = pqBandSky(db, kBand, Options{})
				if err != nil {
					t.Fatalf("PQBandSky fallback: %v", err)
				}
				if ok, diff := sameTupleSet(pres.Tuples, want); !ok {
					t.Fatalf("PQBandSky fallback K=%d m=%d: %s", kBand, m, diff)
				}
			}

			// SQ band: complete runs must match; partial runs must be a
			// subset with honest flagging.
			db = mkDB(t, data, capsAll(m, hidden.SQ), kBand+2, hidden.SumRank{})
			sres, err := sqBandSky(db, kBand, Options{})
			if err != nil {
				t.Fatalf("SQBandSky: %v", err)
			}
			wantSet := tupleSet(want)
			for _, u := range sres.Tuples {
				if !wantSet[fmt.Sprint(u)] {
					t.Fatalf("SQBandSky: non-band tuple %v", u)
				}
			}
			if sres.Complete {
				if ok, diff := sameTupleSet(sres.Tuples, want); !ok {
					t.Fatalf("SQBandSky claims complete but %s", diff)
				}
			}
		}
	}
}

func TestBandCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := uniqueData(rng, 120, 3, 8)
	db := mkDB(t, data, capsAll(3, hidden.RQ), 4, hidden.SumRank{})
	res, err := rqBandSky(db, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := skyline.DominationCount(data)
	byKey := map[string]int{}
	for i, tup := range data {
		byKey[fmt.Sprint(tup)] = counts[i]
	}
	for i, tup := range res.Tuples {
		if want, ok := byKey[fmt.Sprint(tup)]; ok && res.Counts[i] != want {
			t.Fatalf("tuple %v: count %d, ground truth %d", tup, res.Counts[i], want)
		}
		if res.Counts[i] >= 3 {
			t.Fatalf("tuple %v: count %d not in 3-band", tup, res.Counts[i])
		}
	}
	if sort.SliceIsSorted(res.Counts, func(a, b int) bool { return false }) {
		// no-op use of sort to keep the import honest for future edits
		_ = res.Counts
	}
}
