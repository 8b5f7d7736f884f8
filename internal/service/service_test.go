package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/federate"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// testDataset builds a small SQ-capable dataset (sessions need
// one-ended ranges). Anti-correlated data keeps the skyline — and the
// discovery cost — large enough to interrupt mid-run.
func testDataset(seed int64, n int) datagen.Dataset {
	return datagen.AntiCorrelated(seed, n, 3, 60).WithCaps(hidden.SQ)
}

// instrumentedDB wraps a store interface with a query-concurrency gauge
// and an optional per-query delay/notification, so tests can observe
// the manager's scheduling from the store's point of view.
type instrumentedDB struct {
	core.Interface
	delay   time.Duration
	cur     atomic.Int64
	max     atomic.Int64
	served  atomic.Int64
	reached chan struct{} // closed once notifyAt queries served
	notify  int64
	once    sync.Once
}

func (d *instrumentedDB) Query(q query.Q) (hidden.Result, error) {
	c := d.cur.Add(1)
	for {
		m := d.max.Load()
		if c <= m || d.max.CompareAndSwap(m, c) {
			break
		}
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	res, err := d.Interface.Query(q)
	if err == nil {
		if n := d.served.Add(1); d.reached != nil && n >= d.notify {
			d.once.Do(func() { close(d.reached) })
		}
	}
	d.cur.Add(-1)
	return res, err
}

func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sortedTuples(ts [][]int) []string {
	out := make([]string, len(ts))
	for i, tup := range ts {
		out[i] = fmt.Sprint(tup)
	}
	sort.Strings(out)
	return out
}

func sameTuples(t *testing.T, got, want [][]int) {
	t.Helper()
	g, w := sortedTuples(got), sortedTuples(want)
	if len(g) != len(w) {
		t.Fatalf("got %d tuples, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("tuple sets differ at %d: %s vs %s", i, g[i], w[i])
		}
	}
}

// TestConcurrencyGate: N submitted jobs with max-concurrency M never
// run more than M discoveries at once, and all N complete. Each job
// runs sequentially (Parallelism 1), so the store's query-concurrency
// high-water mark equals the number of simultaneously running jobs.
func TestConcurrencyGate(t *testing.T) {
	const (
		jobs          = 8
		maxConcurrent = 2
	)
	d := testDataset(1, 150)
	store := &instrumentedDB{Interface: d.DB(5, hidden.SumRank{}), delay: 200 * time.Microsecond}
	m, err := NewManager(Config{MaxConcurrent: maxConcurrent})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, jobs)
	for i := range ids {
		st, err := m.Submit(JobSpec{Store: "s", Algo: "sq"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	want, err := core.Run(d.DB(5, hidden.SumRank{}), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		st := waitTerminal(t, m, id, 60*time.Second)
		if st.State != StateDone || !st.Complete {
			t.Fatalf("job %s: state=%s complete=%v error=%q", id, st.State, st.Complete, st.Error)
		}
		sameTuples(t, st.Tuples, want.Skyline)
		if st.Queries != want.Queries {
			t.Fatalf("job %s counted %d queries, sequential run %d", id, st.Queries, want.Queries)
		}
	}
	if hw := store.max.Load(); hw > maxConcurrent {
		t.Fatalf("observed %d concurrent discoveries, gate allows %d", hw, maxConcurrent)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartResumesExactly is the daemon's crash story end to end:
// a resumable job is interrupted mid-run (budget partially spent) by
// shutting the manager down, a second manager is built over the same
// snapshot directory, and the resumed job finishes with the same
// skyline set and a total query count equal to the sequential
// baseline's — no query repeated or lost across the kill.
func TestKillRestartResumesExactly(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(2, 400)
	mkdb := func() core.Interface { return d.DB(3, hidden.SumRank{}) }
	baseline, err := core.Run(mkdb(), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Queries < 40 {
		t.Fatalf("dataset too easy to interrupt: baseline cost %d", baseline.Queries)
	}

	store := &instrumentedDB{
		Interface: mkdb(),
		delay:     2 * time.Millisecond,
		reached:   make(chan struct{}),
		notify:    10,
	}
	m1, err := NewManager(Config{MaxConcurrent: 1, SnapshotDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(JobSpec{Store: "s", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never spent its first queries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil { // the "kill": cancels the job mid-budget
		t.Fatal(err)
	}
	mid, ok := m1.Get(st.ID)
	if !ok || mid.State.Terminal() {
		t.Fatalf("interrupted job should be parked, got %+v", mid)
	}
	if mid.Queries <= 0 || mid.Queries >= baseline.Queries {
		t.Fatalf("kill did not land mid-budget: %d of %d queries spent", mid.Queries, baseline.Queries)
	}

	// "Restart": a fresh manager over the same snapshot directory and a
	// fresh, fast store interface.
	m2, err := NewManager(Config{MaxConcurrent: 1, SnapshotDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.AddStore("s", mkdb()); err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1", resumed)
	}
	final := waitTerminal(t, m2, st.ID, 60*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("resumed job: state=%s complete=%v error=%q", final.State, final.Complete, final.Error)
	}
	if final.Restarts != 1 {
		t.Fatalf("job records %d restarts, want 1", final.Restarts)
	}
	sameTuples(t, final.Tuples, baseline.Skyline)
	if final.Queries != baseline.Queries {
		t.Fatalf("resumed job counted %d queries, sequential baseline %d (exact accounting across the kill)",
			final.Queries, baseline.Queries)
	}
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMalformedSession: a snapshot whose session no run could have
// checkpointed (a pending node with 1 bound on a 3-attribute store) fails
// its recovered job instead of panicking the daemon, and the manager
// keeps serving.
func TestRecoverMalformedSession(t *testing.T) {
	dir := t.TempDir()
	snap := `{"status":{"id":"j000001","spec":{"store":"s","resumable":true},"state":"running"},` +
		`"session":{"attrs":3,"pending":[[6]],"queries":3}}`
	if err := os.WriteFile(filepath.Join(dir, "j000001.json"), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{MaxConcurrent: 1, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if err := m.AddStore("s", testDataset(3, 200).DB(3, hidden.SumRank{})); err != nil {
		t.Fatal(err)
	}
	if resumed, err := m.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover: %d jobs, %v", resumed, err)
	}
	bad := waitTerminal(t, m, "j000001", 30*time.Second)
	if bad.State != StateFailed || !strings.Contains(bad.Error, "bounds") {
		t.Fatalf("malformed session: state=%s error=%q, want failed on its node bounds", bad.State, bad.Error)
	}
	st, err := m.Submit(JobSpec{Store: "s", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	if next := waitTerminal(t, m, st.ID, 30*time.Second); next.State != StateDone || !next.Complete {
		t.Fatalf("next job: state=%s complete=%v error=%q", next.State, next.Complete, next.Error)
	}
}

// TestCancelRunningJob: cancelling a running job stops it promptly with
// its partial skyline.
func TestCancelRunningJob(t *testing.T) {
	d := testDataset(3, 400)
	store := &instrumentedDB{
		Interface: d.DB(3, hidden.SumRank{}),
		delay:     2 * time.Millisecond,
		reached:   make(chan struct{}),
		notify:    5,
	}
	m, err := NewManager(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started querying")
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 30*time.Second)
	if final.State != StateCancelled || final.Complete {
		t.Fatalf("cancelled job: state=%s complete=%v", final.State, final.Complete)
	}
	served := store.served.Load()
	time.Sleep(50 * time.Millisecond)
	if after := store.served.Load(); after > served+2 {
		t.Fatalf("job kept querying after cancellation: %d -> %d", served, after)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedJob: a queued job cancels immediately without running.
func TestCancelQueuedJob(t *testing.T) {
	d := testDataset(4, 300)
	store := &instrumentedDB{
		Interface: d.DB(3, hidden.SumRank{}),
		delay:     time.Millisecond,
		reached:   make(chan struct{}),
		notify:    1,
	}
	m, err := NewManager(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	first, err := m.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	<-store.reached
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel: %s", st.State)
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, first.ID, 30*time.Second)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetedJobEndsIncomplete: a budget-bounded job finishes as
// done-but-incomplete with the anytime partial skyline.
func TestBudgetedJobEndsIncomplete(t *testing.T) {
	d := testDataset(5, 400)
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", d.DB(3, hidden.SumRank{})); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Store: "s", Algo: "sq", Budget: 12})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 30*time.Second)
	if final.State != StateDone || final.Complete {
		t.Fatalf("budgeted job: state=%s complete=%v", final.State, final.Complete)
	}
	if final.Queries != 12 || final.BudgetRemaining != 0 {
		t.Fatalf("budgeted job spent %d queries (remaining %d), want exactly 12 (0 left)",
			final.Queries, final.BudgetRemaining)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetJob: a multi-store job merges the per-store skylines into
// the same global frontier the federate layer computes directly.
func TestFleetJob(t *testing.T) {
	da := testDataset(6, 250)
	db := testDataset(7, 250)
	mk := func(d datagen.Dataset) core.Interface { return d.DB(4, hidden.SumRank{}) }
	want, err := federate.Discover([]federate.Store{
		{Name: "a", DB: mk(da)}, {Name: "b", DB: mk(db)},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantTuples [][]int
	for _, o := range want.Frontier {
		wantTuples = append(wantTuples, o.Tuple)
	}

	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("a", mk(da)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("b", mk(db)); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Stores: []string{"a", "b"}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 60*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("fleet job: state=%s complete=%v error=%q", final.State, final.Complete, final.Error)
	}
	sameTuples(t, final.Tuples, wantTuples)
	if final.Queries != want.Queries {
		t.Fatalf("fleet job counted %d queries, federate baseline %d", final.Queries, want.Queries)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitValidation: malformed specs are rejected up front.
func TestSubmitValidation(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", testDataset(8, 50).DB(3, hidden.SumRank{})); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{},                                        // no store
		{Store: "nope"},                           // unknown store
		{Store: "s", Stores: []string{"s"}},       // both forms
		{Stores: []string{"s"}, Resumable: true},  // resumable fleet
		{Store: "s", Algo: "quantum"},             // unknown algorithm
		{Store: "s", Algo: "pq", Resumable: true}, // only the SQ walk checkpoints
		{Store: "s", Budget: -1},                  // negative budget
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCloseParksFreshlySubmittedJob: shutting down immediately after a
// submit must not let the job's just-spawned goroutine escape the park
// — Close returns promptly and the job stays queued (resumable by the
// next process), never running with an un-cancelled context.
func TestCloseParksFreshlySubmittedJob(t *testing.T) {
	d := testDataset(13, 400)
	store := &instrumentedDB{Interface: d.DB(3, hidden.SumRank{}), delay: time.Millisecond}
	m, err := NewManager(Config{MaxConcurrent: 1, SnapshotDir: t.TempDir(), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Store: "s", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Close took %v; a job escaped the park", time.Since(start))
	}
	got, ok := m.Get(st.ID)
	if !ok || got.State.Terminal() {
		t.Fatalf("freshly submitted job ended %+v instead of parking", got)
	}
}

// TestSharedCacheAcrossJobs: two cached jobs against the same store
// share one keyspace — the second job's queries are answered from the
// warm cache instead of re-hitting the backend.
func TestSharedCacheAcrossJobs(t *testing.T) {
	d := testDataset(14, 200)
	store := &instrumentedDB{Interface: d.DB(4, hidden.SumRank{})}
	m, err := NewManager(Config{MaxConcurrent: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	run := func() JobStatus {
		st, err := m.Submit(JobSpec{Store: "s", Algo: "sq", UseCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, m, st.ID, 60*time.Second)
	}
	first := run()
	upstreamAfterFirst := store.served.Load()
	second := run()
	if first.State != StateDone || second.State != StateDone {
		t.Fatalf("jobs ended %s / %s", first.State, second.State)
	}
	sameTuples(t, second.Tuples, first.Tuples)
	if second.Queries != first.Queries {
		t.Fatalf("cached job counted %d queries, first %d (cache hits still count)", second.Queries, first.Queries)
	}
	if grew := store.served.Load() - upstreamAfterFirst; grew != 0 {
		t.Fatalf("second job sent %d queries upstream; the warm shared cache should answer all of them", grew)
	}
	if s := m.CacheStats(); s.Hits == 0 {
		t.Fatalf("shared cache recorded no hits: %+v", s)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// quotaDB rejects queries beyond a replenishable grant with the
// simulator's rate-limit error, emulating a per-day upstream quota.
type quotaDB struct {
	core.Interface
	grant    atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
}

func (d *quotaDB) Query(q query.Q) (hidden.Result, error) {
	if d.served.Load() >= d.grant.Load() {
		d.rejected.Add(1)
		return hidden.Result{}, fmt.Errorf("%w: daily quota", hidden.ErrRateLimited)
	}
	res, err := d.Interface.Query(q)
	if err == nil {
		d.served.Add(1)
	}
	return res, err
}

// TestRateLimitedResumableJobParksAndRetries: an upstream rate limit
// must not orphan a resumable job's checkpoint — the job parks, retries
// after RetryDelay, and once the quota replenishes it finishes with
// exact cumulative accounting.
func TestRateLimitedResumableJobParksAndRetries(t *testing.T) {
	d := testDataset(15, 300)
	mkdb := func() core.Interface { return d.DB(3, hidden.SumRank{}) }
	baseline, err := core.Run(mkdb(), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Queries <= 30 {
		t.Fatalf("dataset too easy: baseline cost %d", baseline.Queries)
	}
	store := &quotaDB{Interface: mkdb()}
	store.grant.Store(25)
	m, err := NewManager(Config{
		MaxConcurrent: 1, SnapshotDir: t.TempDir(),
		CheckpointEvery: 1, RetryDelay: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(JobSpec{Store: "s", Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for { // wait until the quota parks the job
		got, _ := m.Get(st.ID)
		if got.State.Terminal() {
			t.Fatalf("job went terminal (%s, %q) instead of parking on the quota", got.State, got.Error)
		}
		if got.State == StateQueued && got.Queries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never parked; status %+v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	store.grant.Store(1 << 30) // the quota replenishes
	final := waitTerminal(t, m, st.ID, 60*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("retried job: state=%s complete=%v error=%q", final.State, final.Complete, final.Error)
	}
	sameTuples(t, final.Tuples, baseline.Skyline)
	if final.Queries != baseline.Queries {
		t.Fatalf("retried job counted %d queries, baseline %d", final.Queries, baseline.Queries)
	}
	if store.rejected.Load() == 0 {
		t.Fatal("the quota never rejected a query; the retry path was not exercised")
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
