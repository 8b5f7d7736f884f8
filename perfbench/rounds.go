package main

import (
	"fmt"
	"os"
	"time"
)

// Discovery workloads repeat a fixed round of requests. A run builds the
// environment, runs warm-up rounds (checked, never timed), then measures
// whole rounds for --seconds.

const (
	warmupRounds = 3
	// minRounds keeps ten rounds beyond round_p90_ms; a run measures past
	// --seconds until it has them.
	minRounds = 100
	// tracedRounds bounds the traced phase: per-layer figures are per
	// round, and every span of every round is kept in memory.
	tracedRounds = 10
	// hardStop ends any phase, whatever the minimums, so a run on a slow
	// machine still exits in time.
	hardStop = 120 * time.Second
)

// roundEnv is a discovery workload's built environment.
type roundEnv interface {
	setupEnv
	// round runs round r, traced when tr is non-nil.
	round(r int64, tr *tracer) roundOut
	// startPhase readies the per-answer latency sink for a phase of
	// seconds; latencies hands over what it kept.
	startPhase(seconds float64)
	latencies() (kept samples, answers int)
	// layers fills the per-layer metrics from the traced rounds' spans.
	layers(x *spanIndex, m metrics, rounds int)
}

// roundOut is what one round did.
type roundOut struct {
	wall     time.Duration // timed part of the round
	queries  int           // counted queries, the paper's cost
	requests int           // discoveries in the round
	failed   int           // discoveries that errored or disagreed with ground truth
	problems []string
}

// tally accumulates the checks of every round of a run.
type tally struct {
	res      result
	queries  int // queries of the first round; every later round must match
	reported int
}

func (t *tally) add(r int64, o roundOut) {
	if t.res.Attempted == 0 {
		t.queries = o.queries
	} else if o.queries != t.queries {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("round issued %d queries, the first round %d", o.queries, t.queries))
	}
	t.res.Attempted += int64(o.requests)
	t.res.Failed += int64(o.failed)
	for _, p := range o.problems {
		if t.reported < 20 {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %s\n", r, p)
			t.reported++
		}
	}
}

// phase is one measured stretch of rounds.
type phase struct {
	walls   samples
	lat     samples
	answers int
	rounds  int
}

func (p phase) total() time.Duration { return p.walls.sum() }

// runPhase runs rounds until seconds have elapsed and at least min rounds
// are done, or max rounds (when positive) are done.
func runPhase(env roundEnv, t *tally, next *int64, seconds float64, min, max int, tr *tracer) phase {
	var p phase
	env.startPhase(seconds)
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for {
		el := time.Since(start)
		if max > 0 && p.rounds >= max {
			break
		}
		if (el >= limit && p.rounds >= min) || el >= hardStop {
			break
		}
		o := env.round(*next, tr)
		t.add(*next, o)
		*next++
		p.walls.add(o.wall)
		p.rounds++
	}
	p.lat, p.answers = env.latencies()
	return p
}

// measureRounds runs the untraced phase and sets its timing figures in m.
// The phase's sample buffers die when it returns.
func measureRounds(m metrics, env roundEnv, t *tally, next *int64, seconds float64, minR, minBeyond int) error {
	p := runPhase(env, t, next, seconds, minR, 0, nil)
	p90, err := p.walls.percentile(0.90, minBeyond)
	if err != nil {
		return fmt.Errorf("round_p90_ms: %w", err)
	}
	lat := p.lat.split(windows)
	a50, _ := windowedPercentile(lat, 0.5, 0)
	a99, err := windowedPercentile(lat, 0.99, minBeyond)
	if err != nil {
		return fmt.Errorf("answer_p99_us: %w", err)
	}
	m.setE2E("round_p50_ms", ms(p.walls.median()))
	m.setE2E("round_p90_ms", ms(p90))
	m.setE2E("answer_qps", float64(p.answers)/p.total().Seconds())
	m.setE2E("answer_p50_us", us(a50))
	m.setE2E("answer_p99_us", us(a99))
	return nil
}

// runRounds drives a discovery workload through setup, warm-up and the
// measured phases, and derives its metrics.
func runRounds(cfg config, build func() (roundEnv, error)) (result, error) {
	env, setup, err := timeSetup(cfg, build)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer env.close()
	t := &tally{}
	var next int64 = 1
	minBeyond, minR, warm, maxTraced := 10, minRounds, warmupRounds, tracedRounds
	if cfg.smoke {
		minBeyond, minR, warm, maxTraced = 0, 3, 1, 2
	}
	for i := 0; i < warm; i++ {
		t.add(next, env.round(next, nil))
		next++
	}
	m := metrics{}
	if !cfg.trace {
		seconds := cfg.seconds
		if cfg.smoke {
			seconds = 0
		}
		if err := measureRounds(m, env, t, &next, seconds, minR, minBeyond); err != nil {
			return result{}, err
		}
		m.setE2E("setup_s", setup.Seconds())
		m.setE2E("queries_issued", float64(t.queries))
		// The phase's sample buffers are out of scope here; drop the
		// ground truth too, so the live heap is the program's.
		env.release()
		m.setE2E("heap_live_mb", liveHeapMB())
	} else {
		half := cfg.seconds / 2
		if cfg.smoke {
			half = 0
		}
		before := readMem()
		plain := runPhase(env, t, &next, half, 1, 0, nil)
		after := readMem()
		tr := newTracer()
		traced := runPhase(env, t, &next, half, 1, maxTraced, tr)
		m = layerMetrics()
		env.layers(tr.index(), m, traced.rounds)
		allocs, bytes, gcs := perOp(before, after, plain.rounds)
		m.setLayer("runtime.allocs_per_op", allocs)
		m.setLayer("runtime.alloc_bytes_per_op", bytes)
		m.setLayer("runtime.gc_cycles_per_op", gcs)
		m.setLayer("trace.overhead_ratio", ratio(float64(traced.walls.median()), float64(plain.walls.median())))
		if err := tr.write(cfg.spans); err != nil {
			return result{}, err
		}
	}
	t.res.Correct = t.res.Failed == 0
	t.res.Metrics = m
	return t.res, nil
}
