package bench

import (
	"testing"

	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
)

// TestEngineFigureReportsDedup: the engine figure must carry the
// queries-issued vs answered-from-cache series, and on its warmed-cache
// workload the dedup ratio is strictly positive.
func TestEngineFigureReportsDedup(t *testing.T) {
	fig, err := FigEngine(Config{Quick: true, Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range fig.Series {
		byName[s.Name] = s
	}
	issued, ok1 := byName["RQ issued"]
	cachedS, ok2 := byName["RQ from cache"]
	if !ok1 || !ok2 {
		t.Fatalf("figure lacks the issued/from-cache series: %v", fig.Series)
	}
	if len(issued.Points) == 0 || len(issued.Points) != len(cachedS.Points) {
		t.Fatalf("issued/from-cache series mismatch: %d vs %d points", len(issued.Points), len(cachedS.Points))
	}
	for i := range issued.Points {
		if cachedS.Points[i].Y <= 0 {
			t.Fatalf("parallelism %v: nothing answered from cache", issued.Points[i].X)
		}
		if cachedS.Points[i].Y > issued.Points[i].Y {
			t.Fatalf("parallelism %v: more cache answers (%v) than issued queries (%v)",
				issued.Points[i].X, cachedS.Points[i].Y, issued.Points[i].Y)
		}
	}
	if _, ok := ByID("engine"); !ok {
		t.Fatal("engine figure not registered")
	}
}

func engineBenchDB(b *testing.B, caps []hidden.Capability) *hidden.DB {
	b.Helper()
	data := datagen.Independent(2, 3000, 4, 500).Data
	db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkRQSequential / BenchmarkRQParallel report the wall-clock gain
// of the bounded worker pool on the same discovery (in-memory backend:
// the speedup here reflects pure engine overhead vs. gain; the figure
// adds simulated network latency for the realistic regime).
func BenchmarkRQSequential(b *testing.B) {
	db := engineBenchDB(b, capsOf(4, hidden.RQ))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(db, core.Request{Algo: core.AlgoRQ}, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRQParallel(b *testing.B) {
	db := engineBenchDB(b, capsOf(4, hidden.RQ))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(db, core.Request{Algo: core.AlgoRQ}, core.Options{Parallelism: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRQCached measures a warm-cache re-run and reports the dedup
// ratio as a metric.
func BenchmarkRQCached(b *testing.B) {
	db := engineBenchDB(b, capsOf(4, hidden.RQ))
	cache := qcache.New(qcache.Config{})
	if _, err := core.Run(db, core.Request{Algo: core.AlgoRQ}, core.Options{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(db, core.Request{Algo: core.AlgoRQ}, core.Options{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cache.Stats().DedupRatio(), "dedup-ratio")
}
