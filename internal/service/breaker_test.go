package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hiddensky/internal/chaos"
	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
	"hiddensky/internal/web"
)

// TestBreakerLifecycle walks one circuit through its whole state
// machine with synthetic clocks: closed under the threshold, open at
// it, cooling refusals, half-open probes, escalating re-opens, and the
// full reset a success brings.
func TestBreakerLifecycle(t *testing.T) {
	t0 := time.Now()
	b := newBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if d := b.onFailure(t0); d != 0 {
			t.Fatalf("failure %d under the threshold opened the circuit", i+1)
		}
	}
	if ok, _ := b.allow(t0); !ok || b.stateAt(t0) != circuitClosed {
		t.Fatal("two failures under threshold 3 must leave the circuit closed")
	}
	if d := b.onFailure(t0); d != time.Second {
		t.Fatalf("threshold failure cooldown = %v, want the 1s base", d)
	}
	if ok, wait := b.allow(t0.Add(400 * time.Millisecond)); ok || wait != 600*time.Millisecond {
		t.Fatalf("cooling circuit: allowed=%v wait=%v, want refused with 600ms left", ok, wait)
	}
	if st := b.stateAt(t0.Add(500 * time.Millisecond)); st != circuitOpen {
		t.Fatalf("state while cooling = %v, want open", st)
	}
	t1 := t0.Add(time.Second)
	if st := b.stateAt(t1); st != circuitHalfOpen {
		t.Fatalf("state after the cooldown = %v, want half-open", st)
	}
	if ok, _ := b.allow(t1); !ok {
		t.Fatal("half-open circuit must let a probe through")
	}
	// A failed probe re-opens immediately with a doubled cooldown.
	if d := b.onFailure(t1); d != 2*time.Second {
		t.Fatalf("re-open cooldown = %v, want 2s (doubled)", d)
	}
	t2 := t1.Add(2 * time.Second)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("second probe refused after the doubled cooldown")
	}
	b.onSuccess()
	if st := b.stateAt(t2); st != circuitClosed {
		t.Fatalf("state after a successful probe = %v, want closed", st)
	}
	// The success reset the escalation: the next open is back at base.
	for i := 0; i < 2; i++ {
		b.onFailure(t2)
	}
	if d := b.onFailure(t2); d != time.Second {
		t.Fatalf("post-reset cooldown = %v, want the 1s base again", d)
	}
}

// TestBreakerEscalationCap: consecutive opens double the cooldown only
// up to the cap (32x base).
func TestBreakerEscalationCap(t *testing.T) {
	now := time.Now()
	b := newBreaker(1, time.Second)
	var last time.Duration
	for i := 0; i < breakerEscalationCap+3; i++ {
		last = b.onFailure(now)
		now = now.Add(last)
		if ok, _ := b.allow(now); !ok {
			t.Fatal("probe refused after full cooldown")
		}
	}
	if want := time.Second << breakerEscalationCap; last != want {
		t.Fatalf("capped cooldown = %v, want %v", last, want)
	}
}

// TestRetryDelaySchedule pins the park-and-retry delay per consecutive
// no-progress retry: RetryDelay doubling up to MaxRetryDelay (8x by
// default), and flat at MaxRetryDelay when it is below RetryDelay.
func TestRetryDelaySchedule(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  Config
		want [6]time.Duration
	}{
		{"defaults", Config{}, [6]time.Duration{
			15 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second, 120 * time.Second, 120 * time.Second}},
		{"default cap", Config{RetryDelay: 10 * ms}, [6]time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 80 * ms, 80 * ms}},
		{"uneven cap", Config{RetryDelay: 3 * ms, MaxRetryDelay: 20 * ms}, [6]time.Duration{3 * ms, 6 * ms, 12 * ms, 20 * ms, 20 * ms, 20 * ms}},
		{"cap below base", Config{RetryDelay: 10 * ms, MaxRetryDelay: 5 * ms}, [6]time.Duration{5 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms}},
	} {
		m := &Manager{cfg: tc.cfg}
		for n, want := range tc.want {
			if got := m.retryDelayFor(n); got != want {
				t.Errorf("%s: retryDelayFor(%d) = %v, want %v", tc.name, n, got, want)
			}
		}
	}
}

// TestBreakerDisabled: a negative threshold turns the per-store
// breakers off entirely.
func TestBreakerDisabled(t *testing.T) {
	m, err := NewManager(Config{BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if err := m.AddStore("s", testDataset(41, 50).DB(3, hidden.SumRank{})); err != nil {
		t.Fatal(err)
	}
	if m.storeBreaker("s") != nil {
		t.Fatal("negative BreakerThreshold still built a breaker")
	}
}

// outageDB serves normally until switched down, then refuses every
// query with a connection-level transient error.
type outageDB struct {
	core.Interface
	down     atomic.Bool
	rejected atomic.Int64
}

func (d *outageDB) Query(q query.Q) (hidden.Result, error) {
	if d.down.Load() {
		d.rejected.Add(1)
		return hidden.Result{}, fmt.Errorf("connection refused: %w", retry.ErrUnavailable)
	}
	return d.Interface.Query(q)
}

// TestCircuitOpensAndAnswersServeWhileDown is the degradation
// acceptance path: a store publishes an answer index, then goes fully
// down. The resumable discovery job parks, consecutive failures open
// the store's circuit, and while discovery is parked the daemon is
// degraded — but /readyz stays 200 and the answer tier keeps serving
// the last published index with identical scores. Once the upstream
// recovers, the half-open probe finishes the job with exact
// accounting.
func TestCircuitOpensAndAnswersServeWhileDown(t *testing.T) {
	d := answerDataset(51, 250)
	db, err := hidden.New(d.Config(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	store := &outageDB{Interface: db}
	baseline, err := core.Run(hidden.MustNew(d.Config(10, nil)), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		MaxConcurrent: 1,
		RetryDelay:    10 * time.Millisecond, MaxRetryDelay: 40 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if err := m.AddStore("shop", store); err != nil {
		t.Fatal(err)
	}

	// Publish an answer index with a quick band job while healthy.
	const bandK = 3
	seed, err := m.Submit(JobSpec{Store: "shop", Band: bandK})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, seed.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("seed band job ended %s (%s)", fin.State, fin.Error)
	}
	weights := []float64{1, 2, 0.5}
	before, err := m.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: weights, K: bandK})
	if err != nil {
		t.Fatal(err)
	}

	// The upstream goes fully down; a resumable job runs into it.
	store.down.Store(true)
	st, err := m.Submit(JobSpec{Store: "shop", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for { // consecutive failures must open the circuit -> degraded
		rep := m.HealthReport()
		if rep.State == obs.HealthDegraded {
			breached := ""
			for _, c := range rep.Checks {
				if c.Breached {
					breached = c.Name
				}
			}
			if breached != "upstream_circuit_open" {
				t.Fatalf("degraded by %q, want upstream_circuit_open (%+v)", breached, rep)
			}
			break
		}
		if got, _ := m.Get(st.ID); got.State.Terminal() {
			t.Fatalf("job went terminal (%s, %q) instead of parking", got.State, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never opened; report %+v", m.HealthReport())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Degraded, not unready: /readyz stays 200 while discovery is
	// parked, and the circuit_state gauge reads open.
	h := NewHandler(m)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("readyz answered %d while degraded, want 200", rec.Code)
	}
	var rep obs.HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.State != obs.HealthDegraded {
		t.Fatalf("readyz state = %v, want degraded", rep.State)
	}
	var prom strings.Builder
	if err := m.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `circuit_state{store="shop"} 2`) {
		t.Fatalf("circuit_state gauge not open:\n%s", prom.String())
	}

	// The answer tier keeps serving the last published index with
	// identical scores while the upstream is fully down.
	after, err := m.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: weights, K: bandK})
	if err != nil {
		t.Fatalf("answers stopped serving during the outage: %v", err)
	}
	if len(after.Scores) != len(before.Scores) {
		t.Fatalf("outage changed the answer: %d scores vs %d", len(after.Scores), len(before.Scores))
	}
	for i := range after.Scores {
		if after.Scores[i] != before.Scores[i] {
			t.Fatalf("score %d drifted during the outage: %v vs %v", i, after.Scores[i], before.Scores[i])
		}
	}

	// Runs against the open circuit park without one upstream query.
	parkDeadline := time.Now().Add(30 * time.Second)
	for m.Registry().Counter("jobs_parked_circuit_total", "").Load() == 0 {
		if time.Now().After(parkDeadline) {
			t.Fatal("no run was parked by the open circuit")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rejectedAtOpen := store.rejected.Load()
	time.Sleep(50 * time.Millisecond)
	if grew := store.rejected.Load() - rejectedAtOpen; grew != 0 {
		t.Fatalf("open circuit let %d queries through to the dead upstream", grew)
	}

	// Recovery: the half-open probe finds the store healthy, the job
	// finishes with exact accounting, and the rollup heals.
	store.down.Store(false)
	final := waitTerminal(t, m, st.ID, 60*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("recovered job: state=%s complete=%v error=%q", final.State, final.Complete, final.Error)
	}
	sameTuples(t, final.Tuples, baseline.Skyline)
	if final.Queries != baseline.Queries {
		t.Fatalf("recovered job counted %d queries, baseline %d", final.Queries, baseline.Queries)
	}
	if rep := m.HealthReport(); rep.State != obs.HealthReady {
		t.Fatalf("rollup did not heal after recovery: %+v", rep)
	}
}

// TestChaosKillRestartResumesExactly is the crash story under fire:
// the full stack (manager -> web.Client with retry policy -> HTTP ->
// chaos middleware -> web.Server) runs a resumable job while the
// upstream injects 429 bursts and connection resets, the daemon is
// killed mid-job, and a fresh manager over the same snapshot directory
// resumes it to the exact sequential baseline — same skyline set, same
// total query count, with every injected fault absorbed by retries.
func TestChaosKillRestartResumesExactly(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(22, 400)
	baseline, err := core.Run(d.DB(3, hidden.SumRank{}), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Queries < 40 {
		t.Fatalf("dataset too easy to interrupt: baseline cost %d", baseline.Queries)
	}

	serverDB, err := hidden.New(d.Config(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(chaos.Profile{RateLimitEvery: 6, RateLimitBurst: 2, ResetEvery: 17, Seed: 7})
	ts := httptest.NewServer(in.Middleware(web.NewServer(serverDB, nil)))
	defer ts.Close()
	dial := func() *web.Client {
		c, err := web.Dial(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetRetryPolicy(retry.Policy{
			Attempts: 8, BaseBackoff: 200 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond, NoJitter: true,
		})
		return c
	}

	m1, err := NewManager(Config{
		MaxConcurrent: 1, SnapshotDir: dir, CheckpointEvery: 1,
		RetryDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddStore("s", dial()); err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(JobSpec{Store: "s", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for { // let the job spend part of its budget under fire
		got, _ := m1.Get(st.ID)
		if got.State.Terminal() {
			t.Fatalf("job finished before the kill (%s, %q)", got.State, got.Error)
		}
		if got.Queries >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never spent its first queries; status %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil { // the "kill", mid-chaos
		t.Fatal(err)
	}
	mid, ok := m1.Get(st.ID)
	if !ok || mid.State.Terminal() {
		t.Fatalf("interrupted job should be parked, got %+v", mid)
	}
	if mid.Queries <= 0 || mid.Queries >= baseline.Queries {
		t.Fatalf("kill did not land mid-budget: %d of %d queries spent", mid.Queries, baseline.Queries)
	}

	// Restart over the same snapshots; the chaos schedule keeps going.
	m2, err := NewManager(Config{
		MaxConcurrent: 1, SnapshotDir: dir, CheckpointEvery: 1,
		RetryDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if err := m2.AddStore("s", dial()); err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1", resumed)
	}
	final := waitTerminal(t, m2, st.ID, 120*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("resumed job: state=%s complete=%v error=%q", final.State, final.Complete, final.Error)
	}
	sameTuples(t, final.Tuples, baseline.Skyline)
	if final.Queries != baseline.Queries {
		t.Fatalf("resumed job counted %d queries, sequential baseline %d (exact accounting across the kill)",
			final.Queries, baseline.Queries)
	}
	if in.Count(chaos.KindRateLimit) == 0 {
		t.Fatal("no 429 bursts were injected; the chaos path was not exercised")
	}
}
