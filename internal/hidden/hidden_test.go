package hidden

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

func capsOf(s string) []Capability {
	out := make([]Capability, len(s))
	for i, c := range s {
		switch c {
		case 'S':
			out[i] = SQ
		case 'R':
			out[i] = RQ
		case 'P':
			out[i] = PQ
		}
	}
	return out
}

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

func TestConfigValidation(t *testing.T) {
	good := Config{Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, cfg := range map[string]Config{
		"empty":         {Caps: capsOf("R"), K: 1},
		"zero-attrs":    {Data: [][]int{{}}, Caps: nil, K: 1},
		"ragged":        {Data: [][]int{{1, 2}, {1}}, Caps: capsOf("RR"), K: 1},
		"caps-mismatch": {Data: [][]int{{1, 2}}, Caps: capsOf("R"), K: 1},
		"bad-k":         {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 0},
		"filter-rows":   {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Filters: [][]string{{"a"}, {"b"}}},
		"bad-weights":   {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Rank: WeightedRank{Weights: []float64{1, -1}}},
		"weights-arity": {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Rank: WeightedRank{Weights: []float64{1}}},
		"lex-bad-attr":  {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Rank: LexRank{Priority: []int{5}}},
		"lex-dup-attr":  {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Rank: LexRank{Priority: []int{0, 0}}},
		"attr-rank-oob": {Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1, Rank: AttrRank{Attr: 9}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	db := MustNew(Config{Data: [][]int{{1, 2, 3}}, Caps: capsOf("SRP"), K: 1})
	ok := []query.Q{
		{{Attr: 0, Op: query.LT, Value: 2}},
		{{Attr: 0, Op: query.LE, Value: 2}},
		{{Attr: 0, Op: query.EQ, Value: 1}},
		{{Attr: 1, Op: query.GT, Value: 0}},
		{{Attr: 1, Op: query.GE, Value: 0}},
		{{Attr: 2, Op: query.EQ, Value: 3}},
	}
	for _, q := range ok {
		if _, err := db.Query(q); err != nil {
			t.Errorf("%v rejected: %v", q, err)
		}
	}
	bad := []query.Q{
		{{Attr: 0, Op: query.GT, Value: 0}},    // SQ: no >
		{{Attr: 0, Op: query.GE, Value: 0}},    // SQ: no >=
		{{Attr: 2, Op: query.LT, Value: 9}},    // PQ: no <
		{{Attr: 2, Op: query.GE, Value: 0}},    // PQ: no >=
		{{Attr: 7, Op: query.EQ, Value: 0}},    // unknown attribute
		{{Attr: 0, Op: query.Op(9), Value: 0}}, // invalid op
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%v accepted", q)
		}
	}
	// A rejected query must not consume budget.
	if got := db.QueriesIssued(); got != len(ok) {
		t.Errorf("counter %d, want %d (rejections must not count)", got, len(ok))
	}
}

func TestTopKSemantics(t *testing.T) {
	data := [][]int{{1, 9}, {2, 8}, {3, 7}, {4, 6}, {5, 5}}
	db := MustNew(Config{Data: data, Caps: capsOf("RR"), K: 2, Rank: AttrRank{Attr: 0}})

	res, err := db.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overflow || len(res.Tuples) != 2 {
		t.Fatalf("top-2 of 5: overflow=%v len=%d", res.Overflow, len(res.Tuples))
	}
	if res.Tuples[0][0] != 1 || res.Tuples[1][0] != 2 {
		t.Fatalf("ranking violated: %v", res.Tuples)
	}
	if res.Top()[0] != 1 {
		t.Fatal("Top() mismatch")
	}

	res, err = db.Query(query.Q{{Attr: 0, Op: query.GE, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow || len(res.Tuples) != 2 {
		t.Fatalf("exact-2 match: overflow=%v len=%d", res.Overflow, len(res.Tuples))
	}

	res, err = db.Query(query.Q{{Attr: 0, Op: query.GT, Value: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 || res.Overflow || res.Top() != nil {
		t.Fatal("empty answer misreported")
	}
}

func TestReturnedTuplesAreCopies(t *testing.T) {
	data := [][]int{{1, 2}, {3, 4}, {5, 6}}
	db := MustNew(Config{Data: data, Caps: capsOf("RR"), K: 2})
	res, _ := db.Query(nil)
	if len(res.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(res.Tuples))
	}
	res.Tuples[0][0] = 99
	// The rows may share backing storage, but appending to one must not
	// run into the next.
	res.Tuples[0] = append(res.Tuples[0], 77, 78)
	if fmt.Sprint(res.Tuples[1]) != "[3 4]" {
		t.Fatalf("appending to row 0 changed row 1: %v", res.Tuples[1])
	}
	res2, _ := db.Query(nil)
	if fmt.Sprint(res2.Tuples) != "[[1 2] [3 4]]" || fmt.Sprint(data) != "[[1 2] [3 4] [5 6]]" {
		t.Fatalf("caller mutation leaked into the database: answer %v, data %v", res2.Tuples, data)
	}
}

func TestRateLimit(t *testing.T) {
	db := MustNew(Config{Data: [][]int{{1}}, Caps: capsOf("R"), K: 1, QueryLimit: 2})
	for i := 0; i < 2; i++ {
		if _, err := db.Query(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(nil); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
	db.SetQueryLimit(0)
	if _, err := db.Query(nil); err != nil {
		t.Fatalf("unlimited after reset: %v", err)
	}
	db.ResetCounter()
	if db.QueriesIssued() != 0 {
		t.Fatal("counter not reset")
	}
}

func TestDomainsObserved(t *testing.T) {
	db := MustNew(Config{Data: [][]int{{3, 10}, {7, -2}, {5, 4}}, Caps: capsOf("RR"), K: 1})
	if db.Domain(0) != (query.Interval{Lo: 3, Hi: 7}) || db.Domain(1) != (query.Interval{Lo: -2, Hi: 10}) {
		t.Fatalf("domains: %v %v", db.Domain(0), db.Domain(1))
	}
	doms := db.Domains()
	doms[0] = query.Interval{}
	if db.Domain(0).Lo != 3 {
		t.Fatal("Domains() exposed internal slice")
	}
	caps := db.Caps()
	caps[0] = PQ
	if db.Cap(0) != RQ {
		t.Fatal("Caps() exposed internal slice")
	}
}

func TestFiltersReturned(t *testing.T) {
	db := MustNew(Config{
		Data:    [][]int{{1}, {2}},
		Caps:    capsOf("R"),
		K:       5,
		Filters: [][]string{{"AA", "123"}, {"DL", "456"}},
	})
	res, filters, err := db.QueryFull(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(filters) != 2 || filters[0][0] != "AA" || filters[1][1] != "456" {
		t.Fatalf("filters misaligned: %v (tuples %v)", filters, res.Tuples)
	}
}

// The bitmap plan must agree exactly with brute force on every shape of
// column index: one-value bins (domain30, up to one-value-max), quantile
// bins whose bounds fall inside a bin (quantile-min, wide), lookup by
// table (at-n) and by binary search (past-n), starts cut from a
// histogram (at-8n) and from a sorted copy (past-8n), duplicate-heavy
// columns with fewer bins than maxBins (duplicates, heavy), values at
// the ends of int (edges), advertised domains wider than the data
// (override), more than 16 attributes (20-attrs), and across a Rerank.
func TestEvaluatePlansAgree(t *testing.T) {
	for name, s := range map[string]tableShape{
		"domain30":      {n: 2000, m: 3, k: 4, width: 30},
		"one-value-max": {n: 2000, m: 3, k: 4, width: maxBins},
		"quantile-min":  {n: 2000, m: 3, k: 4, width: maxBins + 1},
		"wide":          {n: 2000, m: 3, k: 4, width: 100000},
		"duplicates":    {n: 2000, m: 3, k: 4, width: 4},
		"heavy":         {n: 2000, m: 3, k: 4, width: 1000, heavy: true},
		"at-n":          {n: 500, m: 2, k: 3, width: 500},
		"past-n":        {n: 500, m: 2, k: 3, width: 501},
		"at-8n":         {n: 500, m: 2, k: 3, width: 4000},
		"past-8n":       {n: 500, m: 2, k: 3, width: 4001},
		"edges":         {n: 500, m: 3, k: 3, edges: true},
		"override":      {n: 1000, m: 3, k: 5, width: 50, widen: 20},
		"20-attrs":      {n: 300, m: 20, k: 6, width: 8},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			db, data := newChecked(t, genTable(rng, s))
			checkIndexShape(t, db, s)
			rankings := []Ranking{SumRank{}, AttrRank{Attr: 1 % s.m}, LexRank{}, RandomWeightRank{Seed: 9}}
			for _, rank := range rankings {
				if err := db.Rerank(rank); err != nil {
					t.Fatal(err)
				}
				order := rankOrder(t, rank, data)
				for trial := 0; trial < 150; trial++ {
					checkQuery(t, db, data, order, randQuery(rng, data, 3))
				}
			}
		})
	}
}

// checkIndexShape checks that a table of shape s got the column index
// its shape names, so the shapes above keep covering what they claim.
func checkIndexShape(t *testing.T, db *DB, s tableShape) {
	t.Helper()
	for a, c := range db.ranking.Load().cols {
		w := uint(c.hi) - uint(c.lo) // the range's width less one
		if !s.edges && w != uint(s.width-1) {
			t.Fatalf("A%d observed width %d, want %d", a, w+1, s.width)
		}
		one, table := w < maxBins, w < maxBins || w < uint(s.n)
		if one != (uint(len(c.start)) == w+1) || len(c.start) > maxBins || table != (c.tab != nil) {
			t.Fatalf("A%d: %d bins, table %v, for %d values", a, len(c.start), c.tab != nil, w+1)
		}
		if s.heavy && len(c.start) >= maxBins {
			t.Fatalf("A%d: duplicate-heavy column has %d bins", a, len(c.start))
		}
	}
}

// Every shipped ranking must be domination-consistent: a dominating tuple
// always ranks higher.
func TestRankingsDominationConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randData(rng, 300, 3, 8)
	rankings := map[string]Ranking{
		"sum":         SumRank{},
		"weighted":    WeightedRank{Weights: []float64{1, 2.5, 0.5}},
		"attr":        AttrRank{Attr: 1},
		"lex":         LexRank{Priority: []int{2, 0, 1}},
		"randweight":  RandomWeightRank{Seed: 5},
		"randext":     RandomExtensionRank{Seed: 5},
		"adversarial": AdversarialRank{},
	}
	for name, r := range rankings {
		order, err := r.Order(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pos := make([]int, len(data))
		for p, i := range order {
			pos[i] = p
		}
		for i := range data {
			for j := range data {
				if skyline.Dominates(data[i], data[j]) && pos[i] > pos[j] {
					t.Fatalf("%s: %v dominates %v but ranks below", name, data[i], data[j])
				}
			}
		}
	}
}

// RandomExtensionRank must vary with the seed but stay deterministic.
func TestRandomExtensionSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randData(rng, 100, 2, 10)
	a1, _ := RandomExtensionRank{Seed: 1}.Order(data)
	a2, _ := RandomExtensionRank{Seed: 1}.Order(data)
	b, _ := RandomExtensionRank{Seed: 2}.Order(data)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatal("same seed, different order")
	}
	if fmt.Sprint(a1) == fmt.Sprint(b) {
		t.Fatal("different seeds produced identical orders (suspicious)")
	}
}

func TestCapabilityStrings(t *testing.T) {
	if SQ.String() != "SQ" || RQ.String() != "RQ" || PQ.String() != "PQ" {
		t.Error("capability names wrong")
	}
	if !RQ.Allows(query.GT) || SQ.Allows(query.GT) || PQ.Allows(query.LT) {
		t.Error("Allows matrix wrong")
	}
	if Capability(7).Allows(query.EQ) {
		t.Error("unknown capability should allow nothing")
	}
}

func TestGroundTruthIsCopy(t *testing.T) {
	db := MustNew(Config{Data: [][]int{{1, 2}}, Caps: capsOf("RR"), K: 1})
	g := db.GroundTruth()
	g[0][0] = 99
	if db.GroundTruth()[0][0] != 1 {
		t.Fatal("GroundTruth exposed internals")
	}
}

func TestAdvertisedDomainOverrides(t *testing.T) {
	data := [][]int{{3, 5}, {7, 6}}
	db, err := New(Config{
		Data:    data,
		Caps:    capsOf("RR"),
		K:       1,
		Domains: []query.Interval{{Lo: 0, Hi: 10}, {Lo: 5, Hi: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Domain(0) != (query.Interval{Lo: 0, Hi: 10}) {
		t.Fatalf("override not applied: %v", db.Domain(0))
	}
	if db.Domain(1) != (query.Interval{Lo: 5, Hi: 6}) {
		t.Fatalf("tight override mangled: %v", db.Domain(1))
	}
	// Overrides must contain the observed range.
	if _, err := New(Config{
		Data:    data,
		Caps:    capsOf("RR"),
		K:       1,
		Domains: []query.Interval{{Lo: 4, Hi: 10}, {Lo: 5, Hi: 6}},
	}); err == nil {
		t.Fatal("override excluding data accepted")
	}
	// Arity must match.
	if _, err := New(Config{
		Data:    data,
		Caps:    capsOf("RR"),
		K:       1,
		Domains: []query.Interval{{Lo: 0, Hi: 10}},
	}); err == nil {
		t.Fatal("wrong-arity override accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := MustNew(Config{Data: randData(rng, 500, 2, 20), Caps: capsOf("RR"), K: 3})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				q := query.Q{{Attr: r.Intn(2), Op: query.LE, Value: r.Intn(20)}}
				if _, err := db.Query(q); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.QueriesIssued(); got != workers*perWorker {
		t.Fatalf("counter %d, want %d", got, workers*perWorker)
	}
}

func TestConcurrentRateLimitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const limit = 37
	db := MustNew(Config{Data: randData(rng, 100, 2, 10), Caps: capsOf("RR"), K: 1, QueryLimit: limit})
	var wg sync.WaitGroup
	var served, rejected int64
	var mu sync.Mutex
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := db.Query(nil)
				mu.Lock()
				if err == nil {
					served++
				} else if errors.Is(err, ErrRateLimited) {
					rejected++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if served != limit {
		t.Fatalf("served %d queries under limit %d (rejected %d)", served, limit, rejected)
	}
}
