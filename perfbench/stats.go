package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects exact durations (no bucketing, so every percentile is a
// measured value with all its digits).
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// sink collects one phase's latency samples into a buffer allocated at
// the start of the phase, so the harness's own memory does not grow (and
// shift the collector's pacing) while the program is measured. With
// every > 1 it keeps one call in every: deterministic by call count.
type sink struct {
	every, n int
	s        samples
}

// reset starts a phase expected to keep up to capacity samples.
func (k *sink) reset(capacity int) {
	k.n = 0
	k.s = make(samples, 0, capacity)
}

// due counts a call and reports whether to time it.
func (k *sink) due() bool {
	k.n++
	return k.every <= 1 || k.n%k.every == 0
}

// take hands over the phase's samples and how many calls it counted.
func (k *sink) take() (samples, int) {
	s := k.s
	k.s = nil
	return s, k.n
}

// phaseCapacity sizes a sink for a phase of seconds at up to rate samples
// per second.
func phaseCapacity(seconds, rate float64) int { return int(seconds*rate) + 4096 }

// percentile returns the nearest-rank p-quantile (0 < p < 1). It refuses a
// quantile with fewer than minBeyond samples above it: a p99 over 300
// samples is three points, not a distribution.
func (s samples) percentile(p float64, minBeyond int) (time.Duration, error) {
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := max(int(math.Ceil(p*float64(n)-1e-9)), 1)
	if beyond := n - rank; p > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minBeyond, beyond, n)
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank-1], nil
}

// windows is how many consecutive stretches of a phase the per-answer
// latency percentiles are taken over; the metric is the median of the
// per-window values, so a burst of outside load during one stretch of a
// run does not move it.
const windows = 3

// split cuts time-ordered samples into n consecutive windows.
func (s samples) split(n int) []samples {
	out := make([]samples, n)
	for i := range out {
		out[i] = s[i*len(s)/n : (i+1)*len(s)/n]
	}
	return out
}

// windowedPercentile is the median over windows of each window's
// p-quantile; every window must keep minBeyond samples beyond it.
func windowedPercentile(ws []samples, p float64, minBeyond int) (time.Duration, error) {
	var per samples
	for _, w := range ws {
		d, err := w.percentile(p, minBeyond)
		if err != nil {
			return 0, err
		}
		per.add(d)
	}
	return per.median(), nil
}

// median is the 0.5 nearest-rank quantile (0 when empty).
func (s samples) median() time.Duration {
	d, _ := s.percentile(0.5, 0)
	return d
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one named value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered-by-name set of results.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
