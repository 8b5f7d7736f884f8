package answer

// The named hot-path benchmarks of the read stack (run with -benchmem;
// CI compiles them every push). BenchmarkStoreTopKUnfiltered must stay
// at 0 allocs/op — that is the kernel's contract, which
// TestTopKAppendReusesBuffer pins. The *Reference variants measure the
// retained seed implementation on the same store, so the before/after
// gap is visible from `go test -bench` alone; TestReadPathRatios gates
// the B=16 batch sweep against it.

import (
	"math/rand"
	"testing"

	"hiddensky/internal/obs"
)

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	s, err := Build(bandOf(genData(rng, n, 4, 1000), 10), Options{BandK: 10})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStoreTopKUnfiltered(b *testing.B) {
	s := benchStore(b, 20000)
	w := []float64{1, 0.5, 2, 0.25}
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

func BenchmarkStoreTopKUnfilteredReference(b *testing.B) {
	s := benchStore(b, 20000)
	w := []float64{1, 0.5, 2, 0.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReferenceTopK(TopKQuery{Weights: w, K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInstrumentedTopKZeroAlloc is the observability parity contract:
// attaching latency metrics must not cost the arena path its 0
// allocs/op. If the wrapper ever grows a closure or boxes a value,
// this fails before any daemon regresses.
func TestInstrumentedTopKZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(77))
	s, err := Build(bandOf(genData(rng, 20000, 4, 1000), 10), Options{BandK: 10})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.SetMetrics(&Metrics{
		TopKSeconds:      reg.Histogram("answer_topk_seconds", ""),
		SkylineSeconds:   reg.Histogram("answer_skyline_seconds", ""),
		DominatesSeconds: reg.Histogram("answer_dominates_seconds", ""),
	})
	w := []float64{1, 0.5, 2, 0.25}
	dst := make([]Ranked, 0, 10)
	allocs := testing.AllocsPerRun(200, func() {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10}, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items[:0]
	})
	if allocs != 0 {
		t.Fatalf("instrumented TopKAppend allocates %.1f allocs/op, want 0", allocs)
	}
	if got := reg.Snapshots(); len(got) == 0 || got[len(got)-1].Histogram == nil {
		t.Fatal("metrics registry recorded nothing")
	}
}

// BenchmarkStoreTopKUnfilteredInstrumented is BenchmarkStoreTopKUnfiltered
// with metrics attached — the two must report identical allocs/op (0).
func BenchmarkStoreTopKUnfilteredInstrumented(b *testing.B) {
	s := benchStore(b, 20000)
	s.SetMetrics(&Metrics{TopKSeconds: obs.NewRegistry().Histogram("answer_topk_seconds", "")})
	w := []float64{1, 0.5, 2, 0.25}
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

func BenchmarkStoreTopKFiltered(b *testing.B) {
	s := benchStore(b, 20000)
	w := []float64{1, 0.5, 2, 0.25}
	f := []Range{{Attr: 0, Lo: 0, Hi: 500}}
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10, Filter: f}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

func BenchmarkStoreTopKFilteredReference(b *testing.B) {
	s := benchStore(b, 20000)
	w := []float64{1, 0.5, 2, 0.25}
	f := []Range{{Attr: 0, Lo: 0, Hi: 500}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReferenceTopK(TopKQuery{Weights: w, K: 10, Filter: f}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreTopKFilteredSmall is the small gather-mode case: a
// 3-attribute store (so the generic kernel, not the register one) whose
// range filter leaves ~100 candidates, where per-call setup dominates.
func BenchmarkStoreTopKFilteredSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(80))
	s, err := Build(bandOf(genData(rng, 20000, 3, 1000), 10), Options{BandK: 10})
	if err != nil {
		b.Fatal(err)
	}
	w := []float64{1, 0.5, 2}
	f := []Range{{Attr: 0, Lo: 0, Hi: 20}}
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10, Filter: f}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

// BenchmarkStoreTopKSharded drives the goroutine fan-out: a store
// larger than the spawn threshold with a filter admitting every tuple.
func BenchmarkStoreTopKSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	s, err := Build(genData(rng, minParallelCandidates+4000, 3, 1000000), Options{BandK: 4})
	if err != nil {
		b.Fatal(err)
	}
	w := []float64{1, 0.5, 2}
	f := []Range{Unbounded(0)}
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10, Filter: f}, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		dst = res.Items
	}
}

// batchBenchWeights builds B distinct weight vectors (deterministic,
// all positive, no two collinear).
func batchBenchWeights(m, bsz int) [][]float64 {
	rng := rand.New(rand.NewSource(79))
	ws := make([][]float64, bsz)
	for i := range ws {
		w := make([]float64, m)
		for a := range w {
			w[a] = 0.05 + rng.Float64()*4
		}
		ws[i] = w
	}
	return ws
}

// BenchmarkStoreTopKBatch is the headline batch figure: one op answers
// B distinct weight vectors in one fused sweep. At B=16 compare ns/op
// with BenchmarkStoreTopKBatchSingleLoop, the same 16 vectors as 16
// TopKAppend calls: both run the fused kernel, so the two stay within
// ~30% of each other on a 2-vCPU VM and no test bounds their gap. The
// batch's gain is over the retained reference path, which
// TestReadPathRatios gates.
func BenchmarkStoreTopKBatch(b *testing.B) {
	for _, bsz := range []int{1, 16, 256} {
		b.Run(sizeName(bsz), func(b *testing.B) {
			s := benchStore(b, 20000)
			ws := batchBenchWeights(4, bsz)
			qs := make([]TopKQuery, bsz)
			for i := range qs {
				qs[i] = TopKQuery{Weights: ws[i], K: 10}
			}
			var out []TopKResult
			var err error
			out, err = s.TopKBatchInto(qs, out)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = s.TopKBatchInto(qs, out)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bsz*b.N)/b.Elapsed().Seconds(), "vectors/s")
		})
	}
}

// BenchmarkStoreTopKBatchSingleLoop answers the same 16 vectors as 16
// independent single-vector calls: the "before" row of the batch figure.
func BenchmarkStoreTopKBatchSingleLoop(b *testing.B) {
	const bsz = 16
	s := benchStore(b, 20000)
	ws := batchBenchWeights(4, bsz)
	var dst []Ranked
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			res, err := s.TopKAppend(TopKQuery{Weights: w, K: 10}, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
			dst = res.Items
		}
	}
	b.ReportMetric(float64(bsz*b.N)/b.Elapsed().Seconds(), "vectors/s")
}

func sizeName(bsz int) string {
	switch bsz {
	case 1:
		return "B1"
	case 16:
		return "B16"
	default:
		return "B256"
	}
}
