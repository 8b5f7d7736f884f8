package answer

// The parity suite: the arena/columnar fast path (TopK / TopKAppend)
// must be observationally identical — byte for byte, including float
// bit patterns and tie-breaks — to the retained naive reference
// (ReferenceTopK) on randomized stores across the full request grid:
// weights (including zeros), k (including k > band and k > store),
// filters (none, selective, empty, unbounded), and normalization.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// parityStore builds a randomized store.
func parityStore(rng *rand.Rand) *Store {
	n := 30 + rng.Intn(400)
	m := 2 + rng.Intn(4)
	domain := 5 + rng.Intn(60) // small domains force score ties
	bandK := 1 + rng.Intn(8)
	shard := 1 + rng.Intn(128)
	s, err := Build(genData(rng, n, m, domain), Options{BandK: bandK})
	if err != nil {
		panic(err)
	}
	s.shard = shard
	return s
}

// parityQuery builds a randomized request against s, sometimes invalid.
func parityQuery(rng *rand.Rand, s *Store) TopKQuery {
	m := s.NumAttrs()
	w := make([]float64, m)
	for a := range w {
		switch rng.Intn(4) {
		case 0: // exact zero weights exercise the skipped-column path
		default:
			w[a] = rng.Float64() * 4
		}
	}
	if rng.Intn(8) > 0 { // usually make it valid
		w[rng.Intn(m)] += 0.5
	}
	q := TopKQuery{
		Weights:    w,
		K:          1 + rng.Intn(s.Len()+10),
		Normalized: rng.Intn(2) == 0,
	}
	switch rng.Intn(3) {
	case 0: // unfiltered
	case 1: // one or two selective ranges
		for f := 0; f <= rng.Intn(2); f++ {
			a := rng.Intn(m)
			lo := rng.Intn(70) - 5
			q.Filter = append(q.Filter, Range{Attr: a, Lo: lo, Hi: lo + rng.Intn(40)})
		}
	case 2: // unbounded range (matches everything on that attribute)
		q.Filter = append(q.Filter, Unbounded(rng.Intn(m)))
	}
	return q
}

func checkParity(t *testing.T, s *Store, q TopKQuery) {
	t.Helper()
	got, gotErr := s.TopK(q)
	want, wantErr := s.ReferenceTopK(q)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error parity broken: arena err=%v reference err=%v (q=%+v)", gotErr, wantErr, q)
	}
	if gotErr != nil {
		return
	}
	if got.Exact != want.Exact {
		t.Fatalf("exactness parity broken: arena %v, reference %v (q=%+v)", got.Exact, want.Exact, q)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("answer parity broken for q=%+v:\narena:     %v\nreference: %v", q, got.Items, want.Items)
	}
}

// TestTopKParityRandomized sweeps randomized stores × the request grid.
func TestTopKParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		s := parityStore(rng)
		for rep := 0; rep < 25; rep++ {
			checkParity(t, s, parityQuery(rng, s))
		}
	}
}

// TestTopKParityQuick drives the same property through testing/quick's
// generator on one fixed store: any (weights, k, normalized, filter
// window) combination answers identically on both paths.
func TestTopKParityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := Build(genData(rng, 300, 3, 25), Options{BandK: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.shard = 64
	prop := func(w0, w1, w2 float64, k uint8, normalized bool, fAttr uint8, fLo int8, fSpan uint8) bool {
		// testing/quick draws float64s from ±MaxFloat64, which would
		// make every score overflow (a bad query, see
		// TestTopKRejectsOverflowingScores); scale them into [0, 100].
		abs := func(v float64) float64 { return math.Abs(v) / math.MaxFloat64 * 100 }
		q := TopKQuery{
			Weights:    []float64{abs(w0), abs(w1), abs(w2) + 0.01},
			K:          1 + int(k),
			Normalized: normalized,
		}
		if fSpan > 0 {
			q.Filter = []Range{{Attr: int(fAttr) % 3, Lo: int(fLo), Hi: int(fLo) + int(fSpan)}}
		}
		got, gotErr := s.TopK(q)
		want, wantErr := s.ReferenceTopK(q)
		if (gotErr == nil) != (wantErr == nil) {
			return false
		}
		if gotErr != nil {
			return true
		}
		return got.Exact == want.Exact && reflect.DeepEqual(got.Items, want.Items)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKParityParallelPath forces the goroutine fan-out (candidates
// beyond the spawn threshold, many shards) and checks it against the
// reference, which shards at its own (smaller) threshold.
func TestTopKParityParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large store")
	}
	rng := rand.New(rand.NewSource(43))
	n := minParallelCandidates + 4000
	s, err := Build(genData(rng, n, 3, 1000000), Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.shard = 512
	if s.Len() <= minParallelCandidates {
		t.Fatalf("store too small to exercise the parallel path: %d", s.Len())
	}
	// An unbounded filter admits every tuple, so the candidate set is the
	// whole store — well past the spawn threshold. k stays small (the
	// serving shape); selection cost is O(candidates · k).
	for rep := 0; rep < 6; rep++ {
		q := parityQuery(rng, s)
		q.K = 1 + rng.Intn(64)
		q.Filter = []Range{Unbounded(rng.Intn(3))}
		checkParity(t, s, q)
	}
}

// TestTopKAppendReusesBuffer pins the zero-allocation contract: a caller
// reusing its result slice and issuing the same shaped request must not
// allocate, on every arm the kernel takes for a single query: an
// unfiltered level prefix and a range filter (candidates read through
// the index), a filter admitting the whole store (identity sweep), and
// the 4-attribute register kernel over gathered blocks.
func TestTopKAppendReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(44))
	s3, err := Build(genData(rng, 2000, 3, 500), Options{BandK: 8})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Build(genData(rng, 2000, 4, 500), Options{BandK: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Store
		q    TopKQuery
	}{
		{"unfiltered", s3, TopKQuery{Weights: []float64{1, 0.5, 2}, K: 8}},
		{"filtered", s3, TopKQuery{Weights: []float64{1, 0.5, 2}, K: 8, Filter: []Range{{Attr: 1, Lo: 0, Hi: 200}}}},
		{"identity", s3, TopKQuery{Weights: []float64{1, 0.5, 2}, K: 8, Filter: []Range{Unbounded(0)}}},
		{"register", s4, TopKQuery{Weights: []float64{1, 0.5, 2, 0.25}, K: 8}},
	} {
		// Warm the scratch pool and the destination buffer.
		res, err := tc.s.TopKAppend(tc.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := res.Items
		allocs := testing.AllocsPerRun(200, func() {
			r, err := tc.s.TopKAppend(tc.q, dst[:0])
			if err != nil {
				t.Fatal(err)
			}
			dst = r.Items
		})
		if allocs != 0 {
			t.Fatalf("%s TopKAppend allocates %v per op, want 0", tc.name, allocs)
		}
	}
}
