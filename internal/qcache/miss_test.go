package qcache

// Tests of the miss path: its allocation count, the leader's failure
// reaching every coalesced waiter, deterministic shard choice, and
// full-key matching when fingerprints collide.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// presetBackend answers every query with one fixed result under a real
// store's schema (its attributes, capabilities and domains), so an
// allocation pin or a benchmark measures the cache's own miss path and
// not the backend's evaluation.
type presetBackend struct {
	*hidden.DB
	res hidden.Result
}

func (p *presetBackend) Query(query.Q) (hidden.Result, error) { return p.res, nil }

// flightsPreset is a presetBackend with the 13-attribute Flights schema,
// answering with the store's own top-k for SELECT *.
func flightsPreset(tb testing.TB) *presetBackend {
	tb.Helper()
	db := datagen.Flights(1, 250).DB(10, nil)
	res, err := db.Query(nil)
	if err != nil || len(res.Tuples) == 0 {
		tb.Fatalf("preset answer: %v, %d tuples", err, len(res.Tuples))
	}
	return &presetBackend{DB: db, res: res}
}

// distinctBoxes returns n queries with pairwise distinct canonical boxes
// under b's domains: one upper bound strictly inside one attribute's
// domain, sweeping attribute by attribute.
func distinctBoxes(tb testing.TB, b Backend, n int) []query.Q {
	tb.Helper()
	var qs []query.Q
	for a := 0; a < b.NumAttrs() && len(qs) < n; a++ {
		dom := b.Domain(a)
		for v := dom.Lo; v < dom.Hi && len(qs) < n; v++ {
			qs = append(qs, query.Q{{Attr: a, Op: query.LE, Value: v}})
		}
	}
	if len(qs) < n {
		tb.Fatalf("schema yields only %d distinct boxes, want %d", len(qs), n)
	}
	return qs
}

// TestMissPathAlloc pins the miss path's own allocations on a
// 13-attribute store whose backend allocates nothing: the entry, its
// key, and the caller's answer copy (row slice + flat rows) — 4
// allocs/op. The design with a separate in-flight table made 6 (key,
// call, channel, entry and the copy's 2). Shard maps grow as they fill,
// but that is amortized over the run and rounds away. (The name matches
// CI's 'Alloc' run filter, which runs without -race.)
func TestMissPathAlloc(t *testing.T) {
	back := flightsPreset(t)
	c := New(Config{MaxEntries: -1})
	v := c.Wrap(back)
	const runs = 1000
	qs := distinctBoxes(t, back, runs+1) // AllocsPerRun adds one warm-up call
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := v.Query(qs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if s := c.Stats(); s.Misses != runs+1 || s.Lookups != runs+1 {
		t.Fatalf("stats = %+v, want %d misses out of %d lookups", s, runs+1, runs+1)
	}
	if allocs > 4 {
		t.Fatalf("miss path allocates %.1f allocs/op, want <= 4", allocs)
	}
}

// BenchmarkCacheMiss times a miss on a fresh cache over the Flights
// schema with a backend that costs nothing: canonicalization, key and
// fingerprint, the entry insert (shard maps growing from empty, as in
// a discovery round), publishing, and the answer copy.
func BenchmarkCacheMiss(b *testing.B) {
	back := flightsPreset(b)
	qs := distinctBoxes(b, back, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	var v *DB
	for i := 0; i < b.N; i++ {
		if i%len(qs) == 0 {
			v = New(Config{}).Wrap(back)
		}
		if _, err := v.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoalescedErrorReachesEveryWaiter: when the leader's backend query
// fails while other callers wait on the same box, every waiter gets the
// error, nothing is cached, the next lookup is a fresh miss, and the
// counters add up exactly.
func TestCoalescedErrorReachesEveryWaiter(t *testing.T) {
	boom := errors.New("backend down")
	back := &blockingBackend{release: make(chan struct{}), fail: boom}
	c := New(Config{})
	v := c.Wrap(back)
	q := query.Q{{Attr: 0, Op: query.LT, Value: 42}}

	const askers = 16
	errs := make(chan error, askers)
	var wg sync.WaitGroup
	ask := func() {
		defer wg.Done()
		_, err := v.Query(q.Clone())
		errs <- err
	}
	wg.Add(1)
	go ask() // the leader
	for back.arrived.Load() == 0 {
		runtime.Gosched()
	}
	wg.Add(askers - 1)
	for i := 1; i < askers; i++ {
		go ask()
	}
	// Release the leader only once every other caller waits on it.
	for c.Stats().Coalesced < askers-1 {
		runtime.Gosched()
	}
	close(back.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller got %v, want the leader's error", err)
		}
	}
	if got := back.arrived.Load(); got != 1 {
		t.Fatalf("backend saw %d queries, want 1", got)
	}
	want := Stats{Lookups: askers, Coalesced: askers - 1, Misses: 1}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after a failed query", n)
	}

	// The failure left no trace: the next asker pays a fresh miss.
	back.fail = nil
	if _, err := v.Query(q.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := back.arrived.Load(); got != 2 {
		t.Fatalf("backend saw %d queries, want a fresh one after the failure", got)
	}
	want = Stats{Lookups: askers + 1, Coalesced: askers - 1, Misses: 2}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
}

// TestShardedEvictionDeterministic: two bounded, sharded caches fed the
// same lookup sequence hit, miss and evict identically. Shard choice
// uses a fixed hash, not a random seed, so which entries a bounded
// cache drops — and hence how many queries a run issues — repeats
// exactly.
func TestShardedEvictionDeterministic(t *testing.T) {
	back := flightsPreset(t)
	boxes := distinctBoxes(t, back, 300)
	rng := rand.New(rand.NewSource(9))
	seq := make([]query.Q, 3000)
	for i := range seq {
		seq[i] = boxes[rng.Intn(len(boxes))]
	}
	run := func() (string, Stats) {
		c := New(Config{MaxEntries: 96, Shards: 8})
		if c.NumShards() != 8 {
			t.Fatalf("%d shards, want 8", c.NumShards())
		}
		v := c.Wrap(back)
		outcomes := make([]byte, len(seq))
		for i, q := range seq {
			before := c.Stats().Misses
			if _, err := v.Query(q); err != nil {
				t.Fatal(err)
			}
			outcomes[i] = 'h'
			if c.Stats().Misses != before {
				outcomes[i] = 'm'
			}
		}
		return fmt.Sprint(string(outcomes), c.ShardStats()), c.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if s1.Evictions == 0 || s1.Hits == 0 {
		t.Fatalf("workload neither evicts nor hits: %+v", s1)
	}
	if o1 != o2 || s1 != s2 {
		t.Fatalf("same lookups, different caches: %+v vs %+v", s1, s2)
	}
}

// TestHashCollisionsKeepEntriesApart puts several keys under one hash
// in a shard: the full key alone decides every match, and evicting or
// removing one entry leaves the others of its chain reachable.
func TestHashCollisionsKeepEntriesApart(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	sh := &c.shards[0]
	const h = 42
	a := sh.insert(h, []byte("a"))
	b := sh.insert(h, []byte("b"))
	d := sh.insert(h, []byte("d"))
	for _, want := range []*entry{a, b, d} {
		if got := sh.find(h, []byte(want.key)); got != want {
			t.Fatalf("find(%q) = %v, want its own entry", want.key, got)
		}
	}
	if sh.find(h, []byte("x")) != nil || sh.find(h+1, []byte("a")) != nil {
		t.Fatal("a hash match or a key match alone served an entry")
	}
	sh.publish(c, a, hidden.Result{})
	sh.publish(c, b, hidden.Result{})
	sh.publish(c, d, hidden.Result{}) // over the bound of 2: evicts a, the chain's tail
	if sh.find(h, []byte("a")) != nil || sh.find(h, []byte("b")) != b || sh.find(h, []byte("d")) != d {
		t.Fatal("eviction unlinked the wrong entry")
	}
	if s := c.Stats(); s.Evictions != 1 || c.Len() != 2 {
		t.Fatalf("stats = %+v, len %d; want 1 eviction and 2 entries", s, c.Len())
	}
	sh.remove(d) // the chain's head
	if sh.find(h, []byte("d")) != nil || sh.find(h, []byte("b")) != b {
		t.Fatal("removing the head lost the rest of the chain")
	}
	sh.remove(b)
	if _, ok := sh.entries[h]; ok {
		t.Fatal("an emptied chain left its map slot behind")
	}
}
