package answer

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestReadPathRatios holds the read path's speed bounds as ratios
// between two code paths on one store in one process, so they hold on
// any machine:
//
//   - single-query TopKAppend keeps at least 0.4x the speed of a B=1
//     TopKBatchInto sweep over the same weight rotation. TopKAppend is a
//     one-query call into that sweep; a second, dedicated single-query
//     path measured 0.27x;
//   - the B=16 batch sweep answers each vector at least 4x faster than
//     the retained ReferenceTopK;
//   - loading the binary snapshot takes at most half of a JSON
//     re-index (unmarshal the band, then Build).
//
// Each of a case's 11 rounds times its two paths back to back,
// alternating which goes first, and the test gates the median of the
// rounds' ratios, so a burst of machine noise moves one round, not the
// verdict.
func TestReadPathRatios(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the paths unevenly; the ratios are meaningless")
	}
	const (
		rounds = 11
		burst  = 20 * time.Millisecond
		k      = 10
	)
	rng := rand.New(rand.NewSource(77))
	band := bandOf(genData(rng, 20000, 4, 1000), 10)
	s, err := Build(band, Options{BandK: 10})
	if err != nil {
		t.Fatal(err)
	}
	ws := batchBenchWeights(4, 16)
	var dst []Ranked
	topK := func(i int) {
		res, err := s.TopKAppend(TopKQuery{Weights: ws[i%len(ws)], K: k}, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items
	}
	sweep := func(b int) func(int) {
		qs := make([]TopKQuery, b)
		var out []TopKResult
		return func(i int) {
			for j := range qs {
				qs[j] = TopKQuery{Weights: ws[(i+j)%len(ws)], K: k}
			}
			if out, err = s.TopKBatchInto(qs, out[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	reference := func(i int) {
		if _, err := s.ReferenceTopK(TopKQuery{Weights: ws[i%len(ws)], K: k}); err != nil {
			t.Fatal(err)
		}
	}
	jsonSnap, err := json.Marshal(band)
	if err != nil {
		t.Fatal(err)
	}
	binSnap := s.AppendBinary(nil)
	reindex := func(int) {
		var tuples [][]int
		if err := json.Unmarshal(jsonSnap, &tuples); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(tuples, Options{BandK: 10}); err != nil {
			t.Fatal(err)
		}
	}
	load := func(int) {
		if _, err := LoadBinary(binSnap); err != nil {
			t.Fatal(err)
		}
	}

	// Each case's ratio is base's time per answer over path's: how many
	// times faster path answers than base.
	cases := []struct {
		name       string
		path, base func(int)
		per        int // answers per call of path
		floor      float64
	}{
		{"TopKAppend vs B=1 sweep", topK, sweep(1), 1, 0.4},
		{"B=16 sweep per vector vs ReferenceTopK", sweep(16), reference, 16, 4.0},
		{"binary load vs JSON re-index (time at most 0.5x)", load, reindex, 1, 1 / 0.5},
	}
	for _, c := range cases {
		np, nb := burstLen(c.path, burst), burstLen(c.base, burst)
		ratios := make([]float64, rounds)
		for r := range ratios {
			var tp, tb float64
			if r%2 == 0 {
				tp, tb = timePerCall(c.path, np), timePerCall(c.base, nb)
			} else {
				tb, tp = timePerCall(c.base, nb), timePerCall(c.path, np)
			}
			ratios[r] = tb / (tp / float64(c.per))
		}
		slices.Sort(ratios)
		med := ratios[rounds/2]
		t.Logf("%s: median %.2fx over %d rounds (%.2f-%.2f), floor %.2fx",
			c.name, med, rounds, ratios[0], ratios[rounds-1], c.floor)
		if med < c.floor {
			t.Errorf("%s: median %.2fx, want at least %.2fx", c.name, med, c.floor)
		}
	}
}

// timePerCall runs fn n times and returns the mean nanoseconds per call.
func timePerCall(fn func(int), n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// burstLen returns how many calls of fn take about d, after one warming
// call.
func burstLen(fn func(int), d time.Duration) int {
	fn(0)
	for n := 1; ; n *= 2 {
		if el := timePerCall(fn, n) * float64(n); el >= float64(d)/8 {
			return max(1, int(float64(n)*float64(d)/el))
		}
	}
}
