package hidden

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hiddensky/internal/query"
)

// tableShape sizes a generated test table.
type tableShape struct {
	n, m, k int
	// width is the number of values in an attribute's observed range
	// (once n >= 2, both ends occur). Under maxBins values every value
	// has its own bin; wider ranges get quantile bins, looked up by table
	// below n values and by binary search from n on, and cut from a
	// histogram below 8n values and from a sorted copy from 8n on. Small
	// widths give duplicate values and rows.
	width int
	// widen, when positive, advertises domains up to widen values looser
	// than the data on each side.
	widen int
	// heavy makes three rows in four share the lowest value of each
	// attribute, which leaves fewer quantile bins than maxBins.
	heavy bool
	// edges draws every value from intEdges instead, so the observed
	// range spans all of int.
	edges bool
}

// intEdges are the ends of int, their neighbours and the values around 0.
var intEdges = []int{math.MinInt, math.MinInt + 1, -1, 0, 1, math.MaxInt - 1, math.MaxInt}

// genTable draws a table of the given shape. Each row carries its own
// index as its one filter value, so a test can tell duplicate rows apart
// and check filter alignment.
func genTable(rng *rand.Rand, s tableShape) Config {
	base := rng.Intn(2001) - 1000
	cfg := Config{Data: make([][]int, s.n), Filters: make([][]string, s.n), Caps: make([]Capability, s.m), K: s.k}
	for i := range cfg.Data {
		row := make([]int, s.m)
		for a := range row {
			switch {
			case s.edges:
				row[a] = intEdges[rng.Intn(len(intEdges))]
			case i == 0:
				row[a] = base
			case i == s.n-1:
				row[a] = base + s.width - 1
			case s.heavy && rng.Intn(4) > 0:
				row[a] = base
			default:
				row[a] = base + rng.Intn(s.width)
			}
		}
		cfg.Data[i] = row
		cfg.Filters[i] = []string{strconv.Itoa(i)}
	}
	for a := range cfg.Caps {
		cfg.Caps[a] = RQ
	}
	if s.widen > 0 {
		cfg.Domains = make([]query.Interval, s.m)
		for a := range cfg.Domains {
			lo, hi := cfg.Data[0][a], cfg.Data[0][a]
			for _, t := range cfg.Data {
				lo, hi = min(lo, t[a]), max(hi, t[a])
			}
			wlo, whi := lo-rng.Intn(s.widen+1), hi+rng.Intn(s.widen+1)
			if wlo > lo { // wrapped past MinInt
				wlo = math.MinInt
			}
			if whi < hi {
				whi = math.MaxInt
			}
			cfg.Domains[a] = query.Interval{Lo: wlo, Hi: whi}
		}
	}
	return cfg
}

// testRankings lists one of every shipped ranking for m attributes.
func testRankings(m int, seed int64) []Ranking {
	w := make([]float64, m)
	for a := range w {
		w[a] = 0.5 + float64(uint64(seed+int64(a))%4)
	}
	return []Ranking{SumRank{}, AttrRank{Attr: m - 1}, LexRank{}, WeightedRank{Weights: w},
		RandomWeightRank{Seed: seed}, RandomExtensionRank{Seed: seed}, AdversarialRank{}}
}

// randQuery draws up to maxPreds predicates. Most values sit at, or one
// off (wrapping at the ends of int), values that occur in data, so most
// queries match something; one in eight is MinInt or MaxInt.
func randQuery(rng *rand.Rand, data [][]int, maxPreds int) query.Q {
	ops := []query.Op{query.LT, query.LE, query.EQ, query.GE, query.GT}
	var q query.Q
	for p := rng.Intn(maxPreds + 1); p > 0; p-- {
		a := rng.Intn(len(data[0]))
		v := data[rng.Intn(len(data))][a] + rng.Intn(3) - 1
		if rng.Intn(8) == 0 {
			v = []int{math.MinInt, math.MaxInt}[rng.Intn(2)]
		}
		q = append(q, query.Predicate{Attr: a, Op: ops[rng.Intn(len(ops))], Value: v})
	}
	return q
}

// rankOrder is rank.Order(data), failing the test on error.
func rankOrder(t *testing.T, rank Ranking, data [][]int) []int {
	t.Helper()
	order, err := rank.Order(data)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// checkQuery asks db for q and compares the answer with brute force over
// data (in Config.Data order): filter every row, keep the matches in the
// ranking's order (order is its Order(data)) and cut at k. Tuples,
// Overflow and the QueryFull filter rows must all agree, duplicates
// included.
func checkQuery(t *testing.T, db *DB, data [][]int, order []int, q query.Q) {
	t.Helper()
	var want []int
	for _, i := range order {
		if q.Matches(data[i]) {
			want = append(want, i)
		}
	}
	overflow := len(want) > db.K()
	want = want[:min(len(want), db.K())]
	res, filters, err := db.QueryFull(q)
	if err != nil {
		t.Fatalf("q=%v: %v", q, err)
	}
	if res.Overflow != overflow || len(res.Tuples) != len(want) || len(filters) != len(want) {
		t.Fatalf("q=%v: %d tuples, %d filter rows, overflow %v; want %d, overflow %v",
			q, len(res.Tuples), len(filters), res.Overflow, len(want), overflow)
	}
	for j, i := range want {
		if !slices.Equal(res.Tuples[j], data[i]) || filters[j][0] != strconv.Itoa(i) {
			t.Fatalf("q=%v: answer %d is %v (row %s), want %v (row %d)", q, j, res.Tuples[j], filters[j][0], data[i], i)
		}
	}
}

// newChecked builds a database from cfg and returns it with a private
// copy of the data. It then overwrites cfg.Data, so any answer that
// still read the caller's rows would fail the comparison.
func newChecked(t *testing.T, cfg Config) (*DB, [][]int) {
	t.Helper()
	data := make([][]int, len(cfg.Data))
	for i, row := range cfg.Data {
		data[i] = slices.Clone(row)
	}
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range cfg.Data {
		for a := range row {
			row[a] = -1 << 40
		}
	}
	if db.Size() != len(data) {
		t.Fatalf("Size() = %d, want %d", db.Size(), len(data))
	}
	if g := db.GroundTruth(); !slices.EqualFunc(g, data, slices.Equal) {
		t.Fatalf("GroundTruth() differs from the configured rows")
	}
	return db, data
}

// FuzzQuery holds DB.QueryFull to a brute-force top-k on small random
// tables: duplicate values, value ranges on both sides of maxBins, n and
// 8n (one-value and quantile bins, table and binary-search lookups,
// histogram and sorted cuts), duplicate-heavy columns, values at the ends
// of int, advertised-domain overrides, more than 16 attributes (the
// evaluator's stack buffers overflow to the heap) and a Rerank between
// queries. shape picks the table's size and kind (bits 28-29: plain,
// boundary widths, int edges, heavy; bit 30: 100 more rows, so bitmaps
// span words); script holds 3-byte steps: a
// predicate (attribute, operator, value row; an operator byte from 0xE0
// takes its value from intEdges instead), 0xF0-0xFE to issue the query
// built so far, 0xFF to issue it and then rerank.
func FuzzQuery(f *testing.F) {
	f.Add(int64(1), uint32(0), []byte{})
	f.Add(int64(2), uint32(0x91aa7), []byte{0, 2, 5, 0xF0, 0, 0, 1, 4, 9, 0xFF, 3, 0, 2, 1, 7})
	f.Fuzz(func(t *testing.T, seed int64, shape uint32, script []byte) {
		if len(script) > 300 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(shape%64)
		if shape>>30&1 == 1 {
			n += 100 // bitmaps of two or three words
		}
		s := tableShape{n: n, m: 1 + int(shape>>6%20), k: 1 + int(shape>>11%6)}
		s.width = []int{1, 2, 3, n/2 + 1, n, n + 1, 4 * n, 1 << 20}[shape>>14%8]
		switch shape >> 28 % 4 {
		case 1:
			s.width = []int{maxBins - 1, maxBins, maxBins + 1, n - 1, 8*n - 1, 8 * n, 8*n + 1, 1 << 40}[shape>>14%8]
		case 2:
			s.edges = true
		case 3:
			s.heavy = true
		}
		s.width = max(s.width, 1)
		if shape>>17&1 == 1 {
			s.widen = 3
		}
		rankings := testRankings(s.m, seed)
		rank := rankings[int(shape>>18)%len(rankings)]
		cfg := genTable(rng, s)
		cfg.Rank = rank
		db, data := newChecked(t, cfg)
		order := rankOrder(t, rank, data)
		var q query.Q
		for i := 0; i+2 < len(script); i += 3 {
			b0, b1, b2 := script[i], script[i+1], script[i+2]
			if b0 < 0xF0 {
				a := int(b0) % s.m
				v := data[int(b2)%n][a] + int(b1>>3)%3 - 1
				if b1 >= 0xE0 {
					v = intEdges[int(b2)%len(intEdges)]
				}
				q = append(q, query.Predicate{Attr: a, Op: query.Op(b1 % 5), Value: v})
				continue
			}
			checkQuery(t, db, data, order, q)
			q = nil
			if b0 == 0xFF {
				rank = rankings[int(b1)%len(rankings)]
				if err := db.Rerank(rank); err != nil {
					t.Fatal(err)
				}
				order = rankOrder(t, rank, data)
			}
		}
		checkQuery(t, db, data, order, q)
	})
}
