package answer

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
	"hiddensky/internal/query"
)

// TestParallelReadAllocs bounds the allocations per operation of the
// read stack's two shared hot structures under 8 concurrent callers:
// answer top-k through TopKAppend and warmed qcache hits. A pooled
// scratch that stops being reused across Ps, or a per-call allocation
// that only contention provokes, shows here and not in a
// single-goroutine testing.AllocsPerRun, so the count is the global
// malloc delta over the whole concurrent window.
func TestParallelReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool; alloc counts are meaningless")
	}
	const workers, perWorker = 8, 2000
	// One P per caller, as a server runs: with fewer, the callers take
	// turns and never contend for a pool or a shard lock.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	rng := rand.New(rand.NewSource(77))
	s, err := Build(bandOf(genData(rng, 20000, 4, 1000), 10), Options{BandK: 10})
	if err != nil {
		t.Fatal(err)
	}
	ws := batchBenchWeights(4, 16)
	dst := make([][]Ranked, workers) // one retained result buffer per caller
	topK := func(w, i int) {
		res, err := s.TopKAppend(TopKQuery{Weights: ws[i%len(ws)], K: 10}, dst[w][:0])
		if err != nil {
			t.Error(err)
			return
		}
		dst[w] = res.Items
	}
	got := mallocsPerOp(workers, perWorker, topK)
	t.Logf("TopKAppend at c=%d: %.3f allocs/op", workers, got)
	if got > 0.5 {
		t.Errorf("TopKAppend at c=%d: %.3f allocs/op, want at most 0.5", workers, got)
	}

	data := genData(rng, 2000, 3, 1000)
	db, err := hidden.New(hidden.Config{Data: data, Caps: []hidden.Capability{hidden.RQ, hidden.RQ, hidden.RQ}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	c := qcache.New(qcache.Config{MaxEntries: 1 << 16})
	v := c.Wrap(db)
	qs := make([]query.Q, 512)
	for i := range qs {
		qs[i] = query.Q{
			{Attr: i % 3, Op: query.LE, Value: 5 + i/3},
			{Attr: (i + 1) % 3, Op: query.GE, Value: i % 7},
		}
		if _, err := v.Query(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	hit := func(w, i int) {
		if _, err := v.Query(qs[(w*131+i)%len(qs)]); err != nil {
			t.Error(err)
		}
	}
	// A hit's own allocations are the answer copy: the tuple slice and
	// its flat backing array. Everything else must stay under half an
	// allocation per lookup.
	got = mallocsPerOp(workers, perWorker, hit)
	t.Logf("qcache hit at c=%d: %.3f allocs/op", workers, got)
	if got > 2.5 {
		t.Errorf("qcache hit at c=%d: %.3f allocs/op, want at most 2.5", workers, got)
	}
	if st := c.Stats(); st.Misses != len(qs) {
		t.Fatalf("%d misses for %d distinct boxes: the measured lookups were not all hits", st.Misses, len(qs))
	}
}

// mallocsPerOp runs fn(worker, op) perWorker times on each of workers
// goroutines, once to warm pools and caches and once measured, and
// returns the process-wide heap allocations per measured operation.
func mallocsPerOp(workers, perWorker int, fn func(w, i int)) float64 {
	run := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					fn(w, i)
				}
			}()
		}
		wg.Wait()
	}
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(workers*perWorker)
}
