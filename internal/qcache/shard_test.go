package qcache

// The sharding parity suite: the N-shard cache must be observationally
// identical to the single-shard configuration (the old global-mutex
// design) under concurrent load — same answers, and exact accounting:
// every lookup classified exactly once, misses equal to the queries the
// backend actually served, hits + coalesced + misses = lookups. Run
// with -race.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// workloadQueries builds nq distinct two-sided boxes over m attributes,
// wide enough not to collide after domain clamping.
func workloadQueries(nq, m int) []query.Q {
	qs := make([]query.Q, nq)
	for i := range qs {
		qs[i] = query.Q{
			{Attr: i % m, Op: query.LE, Value: 3 + i},
			{Attr: (i + 1) % m, Op: query.GE, Value: i % 5},
		}
	}
	return qs
}

func TestShardedParityWithSingleShard(t *testing.T) {
	const (
		workers = 8
		perG    = 400
		nq      = 64
	)
	mk := func() *hidden.DB {
		data := make([][]int, 500)
		for i := range data {
			data[i] = []int{(i * 131) % 997, (i * 257) % 983, (i * 389) % 971}
		}
		caps := []hidden.Capability{hidden.RQ, hidden.RQ, hidden.RQ}
		db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: 7})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	qs := workloadQueries(nq, 3)

	type run struct {
		stats   Stats
		served  int
		answers []string
		shards  int
	}
	// runWith drives the workload through any cached view (the sharded
	// cache, the single-shard configuration, or the retained seed
	// reference) and snapshots answers + accounting.
	runWith := func(db *hidden.DB, v interface {
		Query(query.Q) (hidden.Result, error)
	}, stats func() Stats, shards int) run {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					q := qs[(g*37+i)%len(qs)]
					if _, err := v.Query(q.Clone()); err != nil {
						t.Errorf("query failed: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		// Record every box's answer for cross-configuration comparison.
		answers := make([]string, len(qs))
		for i, q := range qs {
			res, err := v.Query(q.Clone())
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = fmt.Sprint(res.Tuples, res.Overflow)
		}
		return run{stats: stats(), served: db.QueriesIssued(), answers: answers, shards: shards}
	}
	runOne := func(shards int) run {
		db := mk()
		c := New(Config{Shards: shards})
		return runWith(db, c.Wrap(db), c.Stats, c.NumShards())
	}
	runRef := func() run {
		db := mk()
		c := NewRef(Config{})
		return runWith(db, c.Wrap(db), c.Stats, 1)
	}

	single := runOne(1)
	sharded := runOne(DefaultShards)
	reference := runRef()
	if single.shards != 1 || sharded.shards != DefaultShards {
		t.Fatalf("shard counts: %d and %d", single.shards, sharded.shards)
	}

	for _, r := range []run{single, sharded, reference} {
		total := workers*perG + nq
		if r.stats.Lookups != total {
			t.Fatalf("shards=%d: %d lookups, want %d", r.shards, r.stats.Lookups, total)
		}
		if got := r.stats.Hits + r.stats.Coalesced + r.stats.Misses; got != r.stats.Lookups {
			t.Fatalf("shards=%d: hits+coalesced+misses = %d, lookups = %d (accounting leaked)",
				r.shards, got, r.stats.Lookups)
		}
		// Exact query accounting: the backend served exactly the misses,
		// and every distinct box missed at least once, at most... exactly
		// once — the first asker pays, everyone else hits or coalesces.
		if r.stats.Misses != r.served {
			t.Fatalf("shards=%d: %d misses but backend served %d", r.shards, r.stats.Misses, r.served)
		}
		if r.stats.Misses != nq {
			t.Fatalf("shards=%d: %d misses for %d distinct boxes", r.shards, r.stats.Misses, nq)
		}
		if r.stats.Evictions != 0 {
			t.Fatalf("shards=%d: unexpected evictions: %+v", r.shards, r.stats)
		}
	}
	for i := range qs {
		if single.answers[i] != sharded.answers[i] || reference.answers[i] != sharded.answers[i] {
			t.Fatalf("box %d answered differently: single %s vs sharded %s vs reference %s",
				i, single.answers[i], sharded.answers[i], reference.answers[i])
		}
	}
	// The hit/coalesced split is timing-dependent (a racer that loses the
	// in-flight window hits the stored entry instead), but the sum — and
	// everything the budget accounting depends on — must agree exactly
	// across all three implementations.
	for _, r := range []run{single, reference} {
		if r.stats.Misses != sharded.stats.Misses ||
			r.stats.Lookups != sharded.stats.Lookups ||
			r.stats.Hits+r.stats.Coalesced != sharded.stats.Hits+sharded.stats.Coalesced {
			t.Fatalf("accounting diverged between configurations:\nother:   %+v\nsharded: %+v", r.stats, sharded.stats)
		}
	}
}

func TestShardCountSelection(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{}, DefaultShards},                     // default bound is large
		{Config{MaxEntries: 4}, 1},                    // tiny cache: exact global LRU
		{Config{MaxEntries: -1}, DefaultShards},       // unbounded
		{Config{MaxEntries: 1 << 20}, DefaultShards},  // large bound
		{Config{Shards: 1}, 1},                        // explicit
		{Config{Shards: 5}, 8},                        // rounded up to a power of two
		{Config{Shards: 16, MaxEntries: 4}, 4},        // capped: >= 1 entry per shard, bound stays exact
		{Config{Shards: 64, MaxEntries: 1 << 16}, 64}, // explicit large
	}
	for _, c := range cases {
		if got := New(c.cfg).NumShards(); got != c.want {
			t.Errorf("New(%+v).NumShards() = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestShardedEvictionRespectsGlobalBound(t *testing.T) {
	db := mkDB(t, 60, rqCaps(2), 5, 0)
	// The backend's attribute-0 domain is [0,16], so the sweep below
	// produces 17 distinct canonical boxes; a bound of 8 must evict.
	const bound = 8
	c := New(Config{MaxEntries: bound, Shards: 4})
	v := c.Wrap(db)
	for i := 0; i < 400; i++ {
		if _, err := v.Query(query.Q{{Attr: 0, Op: query.LE, Value: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > bound {
		t.Fatalf("cache holds %d entries, bound is %d", got, bound)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions after overflowing the bound: %+v", s)
	}
}

// TestBinaryKeyDistinguishesBoxes guards the varint binary key: boxes
// that differ in any bound — the most negative and most positive ints,
// and empty boxes, included — or belong to different keyspaces, must
// never collide; canonical twins must.
func TestBinaryKeyDistinguishesBoxes(t *testing.T) {
	a := mkDB(t, 40, rqCaps(2), 5, 0)
	b := mkDB(t, 40, rqCaps(2), 5, 0)
	c := New(Config{})
	va, vb := c.Wrap(a), c.Wrap(b)

	// Distinct boxes on one backend: each a miss.
	qs := []query.Q{
		{{Attr: 0, Op: query.LE, Value: 5}},
		{{Attr: 0, Op: query.LE, Value: 6}},
		{{Attr: 1, Op: query.LE, Value: 5}},
		{{Attr: 0, Op: query.GE, Value: 5}},
		{{Attr: 0, Op: query.LE, Value: -3}}, // negative bounds must encode distinctly
		{{Attr: 0, Op: query.LE, Value: math.MinInt}},
		{{Attr: 0, Op: query.GE, Value: math.MaxInt}},
		{{Attr: 1, Op: query.LE, Value: math.MinInt}},
		{{Attr: 0, Op: query.GE, Value: math.MaxInt}, {Attr: 1, Op: query.LE, Value: math.MinInt}},
		{{Attr: 0, Op: query.GE, Value: 10}, {Attr: 0, Op: query.LE, Value: 5}}, // empty box
		{{Attr: 0, Op: query.GE, Value: 9}, {Attr: 0, Op: query.LE, Value: 5}},  // another empty box
		nil, // the whole domain
	}
	keys := map[string]int{}
	for i, q := range qs {
		key, _ := va.canonKey(nil, nil, q)
		if j, dup := keys[string(key)]; dup {
			t.Fatalf("boxes %d and %d share the key %x", j, i, key)
		}
		keys[string(key)] = i
		if _, err := va.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.QueriesIssued(); got != len(qs) {
		t.Fatalf("distinct boxes collided: backend served %d of %d", got, len(qs))
	}
	// Same box, other keyspace: its own miss.
	if _, err := vb.Query(qs[0].Clone()); err != nil {
		t.Fatal(err)
	}
	if got := b.QueriesIssued(); got != 1 {
		t.Fatalf("keyspaces collided: second backend served %d", got)
	}
	// Canonical twin on the first backend: a hit, no backend traffic.
	before := a.QueriesIssued()
	if _, err := va.Query(query.Q{{Attr: 0, Op: query.LT, Value: 6}}); err != nil { // ≡ LE 5
		t.Fatal(err)
	}
	if a.QueriesIssued() != before {
		t.Fatal("canonical twin missed the cache under the binary key")
	}
	twin, _ := va.canonKey(nil, nil, query.Q{{Attr: 0, Op: query.LE, Value: math.MinInt}, {Attr: 0, Op: query.LE, Value: 3}})
	if i, ok := keys[string(twin)]; !ok || i != 5 {
		t.Fatal("canonical twin of the MinInt bound has its own key")
	}
}

// TestManyBackendsBindingLookup covers the map-backed binding table: a
// fleet-sized number of backends each keeps its keyspace across
// re-wraps, and answers never cross.
func TestManyBackendsBindingLookup(t *testing.T) {
	c := New(Config{})
	const stores = 200
	dbs := make([]*hidden.DB, stores)
	for i := range dbs {
		dbs[i] = mkDB(t, 30+i, rqCaps(2), 5, 0)
	}
	q := query.Q{{Attr: 0, Op: query.LE, Value: 9}}
	for i, db := range dbs {
		if _, err := c.Wrap(db).Query(q.Clone()); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	// Re-wrapping reuses each keyspace: no backend sees a second query.
	for i, db := range dbs {
		if _, err := c.Wrap(db).Query(q.Clone()); err != nil {
			t.Fatal(err)
		}
		if got := db.QueriesIssued(); got != 1 {
			t.Fatalf("store %d served %d queries after re-wrap, want 1", i, got)
		}
	}
}

func BenchmarkCacheLookupParallel(b *testing.B) {
	for _, shards := range []int{1, DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := mkDB(b, 500, rqCaps(3), 7, 0)
			c := New(Config{Shards: shards})
			v := c.Wrap(db)
			qs := workloadQueries(128, 3)
			for _, q := range qs {
				if _, err := v.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := v.Query(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkCanonKey times the per-lookup key work: canonicalizing the
// query, encoding the varint key and fingerprinting the box.
func BenchmarkCanonKey(b *testing.B) {
	db := mkDB(b, 100, rqCaps(3), 5, 0)
	v := New(Config{}).Wrap(db)
	q := query.Q{
		{Attr: 0, Op: query.LE, Value: 12},
		{Attr: 1, Op: query.GE, Value: 3},
		{Attr: 2, Op: query.LT, Value: 9},
	}
	var arr [keyStackBytes]byte
	var ivs [keyStackAttrs]query.Interval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = v.canonKey(arr[:0], ivs[:0], q)
	}
}
