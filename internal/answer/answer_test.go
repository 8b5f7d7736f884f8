package answer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hiddensky/internal/skyline"
)

// genData generates n random m-wide tuples.
func genData(rng *rand.Rand, n, m, domain int) [][]int {
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

// bandOf materializes the K-skyband of data as tuples.
func bandOf(data [][]int, k int) [][]int {
	var out [][]int
	for _, i := range skyline.Skyband(data, k) {
		out = append(out, data[i])
	}
	return out
}

// bruteTopK returns the k best scores over the whole dataset under a
// linear weighting (lower is better).
func bruteTopK(data [][]int, w []float64, k int) []float64 {
	scores := make([]float64, len(data))
	for i, t := range data {
		for a, wa := range w {
			scores[i] += wa * float64(t[a])
		}
	}
	sort.Float64s(scores)
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty build should fail")
	}
	if _, err := Build([][]int{{1, 2}, {1}}, Options{}); err == nil {
		t.Fatal("ragged build should fail")
	}
	s, err := Build([][]int{{1, 2}, {1, 2}, {2, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("duplicates not dropped: %d tuples", s.Len())
	}
	if s.BandK() != 1 || s.Stats().Levels < 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestTopKValidation(t *testing.T) {
	s, _ := Build([][]int{{1, 2}, {2, 1}}, Options{})
	for _, q := range []TopKQuery{
		{Weights: []float64{1}, K: 1},                                 // wrong width
		{Weights: []float64{1, -1}, K: 1},                             // negative
		{Weights: []float64{0, 0}, K: 1},                              // all zero
		{Weights: []float64{1, math.NaN()}, K: 1},                     // NaN
		{Weights: []float64{1, 1}, K: 0},                              // k
		{Weights: []float64{1, 1}, K: 1, Filter: []Range{{Attr: 9}}},  // attr
		{Weights: []float64{1, 1}, K: 1, Filter: []Range{{0, 5, 2}}},  // lo>hi
		{Weights: []float64{1, 1}, K: 1, Filter: []Range{{Attr: -1}}}, // attr
		{Weights: []float64{math.Inf(1), 1}, K: 1},                    // inf
	} {
		if _, err := s.TopK(q); err == nil {
			t.Errorf("query %+v should be rejected", q)
		}
	}
}

// The store's raison d'être: unfiltered top-k over a band-built store
// equals brute-force top-k over the full original data for arbitrary
// non-negative weight vectors, for every k up to the band level.
func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(300)
		m := 2 + rng.Intn(3)
		// The skyband identity lives in the paper's general positioning
		// (distinct value combinations): duplicate rows inflate domination
		// counts and would shrink the band below what dedup'd ground truth
		// expects.
		data := dedupTuples(genData(rng, n, m, 40))
		bandK := 1 + rng.Intn(8)
		s, err := Build(bandOf(data, bandK), Options{BandK: bandK})
		if err != nil {
			t.Fatal(err)
		}
		s.shard = 1 + rng.Intn(64)
		for rep := 0; rep < 4; rep++ {
			w := make([]float64, m)
			for a := range w {
				w[a] = rng.Float64() * 3
			}
			w[rng.Intn(m)] += 0.1 // at least one positive
			k := 1 + rng.Intn(bandK)
			res, err := s.TopK(TopKQuery{Weights: w, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatalf("trial %d: unfiltered k=%d <= bandK=%d should be exact", trial, k, bandK)
			}
			want := bruteTopK(data, w, k)
			if len(res.Items) != len(want) {
				t.Fatalf("trial %d: got %d items, want %d", trial, len(res.Items), len(want))
			}
			for i, it := range res.Items {
				if math.Abs(it.Score-want[i]) > 1e-9 {
					t.Fatalf("trial %d rank %d: store score %v, brute force %v (w=%v k=%d)",
						trial, i, it.Score, want[i], w, k)
				}
			}
		}
	}
}

func dedupTuples(data [][]int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, t := range data {
		k := fmt.Sprint(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// Ordering and determinism: scores non-decreasing, ties broken by tuple
// value, independent of shard size.
func TestTopKDeterministicAcrossShardSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := genData(rng, 500, 3, 6) // tiny domain: many score ties
	band := bandOf(data, 10)
	w := []float64{1, 1, 1}
	var ref []Ranked
	for _, shard := range []int{1, 7, 64, 100000} {
		s, err := Build(band, Options{BandK: 10})
		if err != nil {
			t.Fatal(err)
		}
		s.shard = shard
		res, err := s.TopK(TopKQuery{Weights: w, K: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Items); i++ {
			if res.Items[i].Score < res.Items[i-1].Score {
				t.Fatalf("shard %d: scores out of order at %d", shard, i)
			}
		}
		if ref == nil {
			ref = res.Items
			continue
		}
		if fmt.Sprint(res.Items) != fmt.Sprint(ref) {
			t.Fatalf("shard %d: answer differs:\n%v\nvs\n%v", shard, res.Items, ref)
		}
	}
}

func TestTopKFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := genData(rng, 400, 3, 30)
	band := bandOf(data, 6)
	s, err := Build(band, Options{BandK: 6})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{2, 1, 0.5}
	filter := []Range{{Attr: 0, Lo: 5, Hi: 20}, {Attr: 2, Lo: math.MinInt, Hi: 15}}
	res, err := s.TopK(TopKQuery{Weights: w, K: 5, Filter: filter})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("filtered answers must not claim exactness")
	}
	// Reference: brute force over the materialized tuples.
	var want []float64
	stored := dedupTuples(band)
	for _, tu := range stored {
		if tu[0] < 5 || tu[0] > 20 || tu[2] > 15 {
			continue
		}
		want = append(want, 2*float64(tu[0])+float64(tu[1])+0.5*float64(tu[2]))
	}
	sort.Float64s(want)
	if len(want) > 5 {
		want = want[:5]
	}
	if len(res.Items) != len(want) {
		t.Fatalf("got %d items, want %d", len(res.Items), len(want))
	}
	for i, it := range res.Items {
		if tu := it.Tuple; tu[0] < 5 || tu[0] > 20 || tu[2] > 15 {
			t.Fatalf("item %d violates filter: %v", i, tu)
		}
		if math.Abs(it.Score-want[i]) > 1e-9 {
			t.Fatalf("rank %d: score %v, want %v", i, it.Score, want[i])
		}
	}
	// An impossible filter answers empty, not an error.
	res, err = s.TopK(TopKQuery{Weights: w, K: 3, Filter: []Range{{Attr: 1, Lo: 1000, Hi: 2000}}})
	if err != nil || len(res.Items) != 0 {
		t.Fatalf("impossible filter: %v items, err %v", len(res.Items), err)
	}
}

func TestTopKNormalized(t *testing.T) {
	// Attribute 1's raw scale dwarfs attribute 0's; normalized weights
	// rebalance them.
	tuples := [][]int{{0, 9000}, {9, 1000}, {5, 5000}}
	s, err := Build(tuples, Options{BandK: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.TopK(TopKQuery{Weights: []float64{1, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Items[0].Tuple[1] != 1000 {
		t.Fatalf("raw scoring should be dominated by the large attribute: %v", raw.Items[0])
	}
	norm, err := s.TopK(TopKQuery{Weights: []float64{1, 1}, K: 3, Normalized: true})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized: {0,9000}->0+1=1, {9,1000}->1+0=1, {5,5000}->0.5555+0.5=1.0555
	if norm.Items[2].Tuple[0] != 5 {
		t.Fatalf("normalized order wrong: %v", norm.Items)
	}
	for i := 1; i < len(norm.Items); i++ {
		if norm.Items[i].Score < norm.Items[i-1].Score {
			t.Fatal("normalized scores out of order")
		}
	}
}

func TestSubspaceSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := genData(rng, 300, 3, 12)
	band := bandOf(data, 5)
	s, err := Build(band, Options{BandK: 5})
	if err != nil {
		t.Fatal(err)
	}
	stored := dedupTuples(band)
	for _, attrs := range [][]int{{0}, {1, 2}, {0, 2}, {0, 1, 2}} {
		got, err := s.SubspaceSkyline(attrs)
		if err != nil {
			t.Fatal(err)
		}
		// Definition check against the materialized tuples.
		want := 0
		for _, a := range stored {
			dominated := false
			for _, b := range stored {
				if skyline.DominatesOnSubset(b, a, attrs) {
					dominated = true
					break
				}
			}
			if !dominated {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("attrs %v: %d tuples, want %d", attrs, len(got), want)
		}
		for _, a := range got {
			for _, b := range stored {
				if skyline.DominatesOnSubset(b, a, attrs) {
					t.Fatalf("attrs %v: %v is dominated by %v", attrs, a, b)
				}
			}
		}
	}
	// Empty subset = full skyline; bad subsets rejected.
	full, err := s.SubspaceSkyline(nil)
	if err != nil || len(full) != len(s.Skyline()) {
		t.Fatalf("empty attrs: %d tuples, err %v", len(full), err)
	}
	if _, err := s.SubspaceSkyline([]int{0, 0}); err == nil {
		t.Fatal("duplicate attr accepted")
	}
	if _, err := s.SubspaceSkyline([]int{7}); err == nil {
		t.Fatal("out-of-range attr accepted")
	}
}

func TestDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := genData(rng, 200, 3, 15)
	band := bandOf(data, 4)
	s, err := Build(band, Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	stored := dedupTuples(band)
	for trial := 0; trial < 200; trial++ {
		cand := []int{rng.Intn(15), rng.Intn(15), rng.Intn(15)}
		got, witness, err := s.Dominates(cand)
		if err != nil {
			t.Fatal(err)
		}
		want := false
		for _, u := range stored {
			if skyline.Dominates(u, cand) {
				want = true
				break
			}
		}
		if got != want {
			t.Fatalf("Dominates(%v) = %v, want %v", cand, got, want)
		}
		if got && !skyline.Dominates(witness, cand) {
			t.Fatalf("witness %v does not dominate %v", witness, cand)
		}
	}
	if _, _, err := s.Dominates([]int{1}); err == nil {
		t.Fatal("wrong-width candidate accepted")
	}
}

// Hot-swap safety: hammer a Handle with concurrent queries while
// another goroutine swaps fresh stores in (run with -race).
func TestHandleHotSwapConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var h Handle
	if h.Load() != nil {
		t.Fatal("fresh handle should be empty")
	}
	first, err := Build(genData(rng, 200, 3, 20), Options{BandK: 3})
	if err != nil {
		t.Fatal(err)
	}
	h.Swap(first)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Load()
				w := []float64{rng.Float64() + 0.1, rng.Float64(), rng.Float64()}
				res, err := s.TopK(TopKQuery{Weights: w, K: 3})
				if err != nil || len(res.Items) == 0 {
					t.Errorf("query against snapshot failed: %v", err)
					return
				}
				if _, _, err := s.Dominates([]int{1, 1, 1}); err != nil {
					t.Errorf("dominates failed: %v", err)
					return
				}
			}
		}(int64(100 + g))
	}
	for i := 0; i < 20; i++ {
		next, err := Build(genData(rng, 150+i, 3, 20), Options{BandK: 2})
		if err != nil {
			t.Fatal(err)
		}
		if old := h.Swap(next); old == nil {
			t.Error("swap lost the previous store")
		}
	}
	close(stop)
	wg.Wait()
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	band := bandOf(genData(rng, 20000, 4, 1000), 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(band, Options{BandK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKBand(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	data := genData(rng, 20000, 4, 1000)
	s, err := Build(bandOf(data, 10), Options{BandK: 10})
	if err != nil {
		b.Fatal(err)
	}
	w := []float64{1, 0.5, 2, 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(TopKQuery{Weights: w, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKFullScanBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	data := genData(rng, 20000, 4, 1000)
	w := []float64{1, 0.5, 2, 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteTopK(data, w, 10)
	}
}

func BenchmarkTopKFiltered(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	data := genData(rng, 20000, 4, 1000)
	s, err := Build(bandOf(data, 10), Options{BandK: 10})
	if err != nil {
		b.Fatal(err)
	}
	w := []float64{1, 0.5, 2, 0.25}
	f := []Range{{Attr: 0, Lo: 0, Hi: 500}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TopK(TopKQuery{Weights: w, K: 10, Filter: f}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTopKRejectsOverflowingScores: finite, non-negative weights whose
// scores overflow float64 over the stored value ranges are a bad query
// (an Inf score cannot be ranked or encoded), single and batched; the
// normalized bound uses unit columns, so the same weights pass there
// only while Σw stays finite.
func TestTopKRejectsOverflowingScores(t *testing.T) {
	s, _ := Build([][]int{{1, 20}, {3, 10}}, Options{})
	for _, q := range []TopKQuery{
		{Weights: []float64{1e308, 1e308}, K: 1},
		{Weights: []float64{0, 1e307}, K: 1},
		{Weights: []float64{math.MaxFloat64, math.MaxFloat64}, K: 1, Normalized: true},
	} {
		if _, err := s.TopK(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("query %+v: err=%v, want ErrBadQuery", q, err)
		}
		if _, err := s.TopKBatch([]TopKQuery{{Weights: []float64{1, 1}, K: 1}, q}); !errors.Is(err, ErrBadQuery) {
			t.Errorf("batch with %+v: err=%v, want ErrBadQuery", q, err)
		}
	}
	for _, q := range []TopKQuery{
		{Weights: []float64{1e300, 1e300}, K: 2},
		{Weights: []float64{5e307, 5e307}, K: 2, Normalized: true},
	} {
		res, err := s.TopK(q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		for _, it := range res.Items {
			if math.IsInf(it.Score, 0) || math.IsNaN(it.Score) {
				t.Fatalf("query %+v scored %v", q, it.Score)
			}
		}
	}
}
