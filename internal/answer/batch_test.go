package answer

// Batch parity: TopKBatch must be observationally identical to a loop
// of single TopKAppend calls — same Items (bit-for-bit scores, same
// tie-breaks), same Exact flags — across the randomized request grid,
// filtered and unfiltered, on both sides of the goroutine-spawn
// threshold. TopKAppend is a one-query call into the same kernel, so
// these suites pin grouping: a member's answer must not depend on which
// other queries share its sweep. Equality is exact, not approximate.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// batchQueries builds a batch of valid randomized queries, biased so
// several members share a filter (exercising group formation) and
// several are unfiltered with different K (exercising the shared-prefix
// group).
func batchQueries(rng *rand.Rand, s *Store, b int) []TopKQuery {
	qs := make([]TopKQuery, 0, b)
	for len(qs) < b {
		q := parityQuery(rng, s)
		if s.CheckQuery(q) != nil {
			continue
		}
		qs = append(qs, q)
		// Sometimes clone the filter (not the weights) onto the next
		// member so filtered groups have >1 member.
		if len(q.Filter) > 0 && len(qs) < b && rng.Intn(2) == 0 {
			q2 := parityQuery(rng, s)
			q2.Filter = q.Filter
			if s.CheckQuery(q2) == nil {
				qs = append(qs, q2)
			}
		}
	}
	return qs
}

func checkBatchParity(t *testing.T, s *Store, qs []TopKQuery) {
	t.Helper()
	got, err := s.TopKBatch(qs)
	if err != nil {
		t.Fatalf("TopKBatch: %v", err)
	}
	if len(got) != len(qs) {
		t.Fatalf("TopKBatch returned %d results for %d queries", len(got), len(qs))
	}
	for i, q := range qs {
		want, err := s.TopKAppend(q, nil)
		if err != nil {
			t.Fatalf("single query %d: %v", i, err)
		}
		if got[i].Exact != want.Exact {
			t.Fatalf("batch member %d exactness: batch %v, single %v (q=%+v)", i, got[i].Exact, want.Exact, q)
		}
		if !reflect.DeepEqual(got[i].Items, want.Items) {
			t.Fatalf("batch member %d diverges for q=%+v:\nbatch:  %v\nsingle: %v", i, q, got[i].Items, want.Items)
		}
	}
}

// TestTopKBatchParityRandomized sweeps randomized stores × randomized
// batches (including B=1 and batches far larger than the store).
func TestTopKBatchParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		s := parityStore(rng)
		for rep := 0; rep < 6; rep++ {
			checkBatchParity(t, s, batchQueries(rng, s, 1+rng.Intn(40)))
		}
	}
}

// TestTopKBatchParityQuick drives batch-vs-single equality through
// testing/quick on a fixed store: two arbitrary queries (one possibly
// filtered) plus their swap must answer identically both ways.
func TestTopKBatchParityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s, err := Build(genData(rng, 300, 3, 25), Options{BandK: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.shard = 64
	// testing/quick draws float64s from ±MaxFloat64, which would make
	// every score overflow (a bad query, see
	// TestTopKRejectsOverflowingScores); scale them into [0, 100].
	abs := func(v float64) float64 { return math.Abs(v) / math.MaxFloat64 * 100 }
	prop := func(w0, w1, w2, v0, v1, v2 float64, k0, k1 uint8, norm0, norm1 bool, fAttr uint8, fLo int8, fSpan uint8) bool {
		qa := TopKQuery{Weights: []float64{abs(w0), abs(w1), abs(w2) + 0.01}, K: 1 + int(k0), Normalized: norm0}
		qb := TopKQuery{Weights: []float64{abs(v0), abs(v1), abs(v2) + 0.01}, K: 1 + int(k1), Normalized: norm1}
		if fSpan > 0 {
			qb.Filter = []Range{{Attr: int(fAttr) % 3, Lo: int(fLo), Hi: int(fLo) + int(fSpan)}}
		}
		for _, qs := range [][]TopKQuery{{qa, qb}, {qb, qa}, {qb, qb, qa}} {
			got, err := s.TopKBatch(qs)
			if err != nil {
				return false
			}
			for i, q := range qs {
				want, err := s.TopKAppend(q, nil)
				if err != nil || got[i].Exact != want.Exact || !reflect.DeepEqual(got[i].Items, want.Items) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKBatchParallelPath forces the fan-out arms (range-parallel
// scoring, member-parallel selection) on a store past the spawn
// threshold and checks batch == single there too.
func TestTopKBatchParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("large store")
	}
	rng := rand.New(rand.NewSource(53))
	n := minParallelCandidates + 4000
	s, err := Build(genData(rng, n, 3, 1000000), Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.shard = 512
	if s.Len() <= minParallelCandidates {
		t.Fatalf("store too small to exercise the parallel path: %d", s.Len())
	}
	qs := make([]TopKQuery, 0, 12)
	for len(qs) < cap(qs) {
		q := parityQuery(rng, s)
		q.K = 1 + rng.Intn(48)
		// An unbounded filter admits every tuple: the group candidate
		// set is the whole store, well past the threshold. Half the
		// members stay unfiltered to cover the prefix group as well.
		if len(qs)%2 == 0 {
			q.Filter = []Range{Unbounded(rng.Intn(3))}
		} else {
			q.Filter = nil
		}
		if s.CheckQuery(q) != nil {
			continue
		}
		qs = append(qs, q)
	}
	checkBatchParity(t, s, qs)
}

// TestTopKBatchValidation pins the all-or-nothing contract: one bad
// member fails the whole batch, names its index, and CheckQuery agrees
// with what the batch rejects.
func TestTopKBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s, err := Build(genData(rng, 100, 3, 50), Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	good := TopKQuery{Weights: []float64{1, 0, 2}, K: 3}
	bad := TopKQuery{Weights: []float64{0, 0, 0}, K: 3}
	if err := s.CheckQuery(good); err != nil {
		t.Fatalf("CheckQuery rejects a valid query: %v", err)
	}
	if err := s.CheckQuery(bad); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("CheckQuery on all-zero weights: %v", err)
	}
	_, err = s.TopKBatch([]TopKQuery{good, bad, good})
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("batch with a bad member: %v", err)
	}
	if !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("batch error does not name the offending index: %v", err)
	}
	if _, err := s.TopKBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestTopKBatchReusesBuffers pins the steady-state zero-allocation
// contract of TopKBatchInto: with a warmed result slice (and warmed
// pooled scratch) a same-shaped batch must not allocate.
func TestTopKBatchReusesBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(55))
	s, err := Build(genData(rng, 2000, 3, 500), Options{BandK: 8})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]TopKQuery, 16)
	for i := range qs {
		qs[i] = TopKQuery{Weights: []float64{1 + float64(i), 0.5, 2}, K: 8}
		if i%4 == 3 {
			qs[i].Normalized = true
		}
	}
	out, err := s.TopKBatchInto(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		out, err = s.TopKBatchInto(qs, out)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state TopKBatchInto allocates %v per op, want 0", allocs)
	}
}
