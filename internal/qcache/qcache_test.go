package qcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

func mkDB(t testing.TB, n int, caps []hidden.Capability, k, limit int) *hidden.DB {
	t.Helper()
	data := make([][]int, n)
	for i := range data {
		data[i] = []int{i % 17, (i * 7) % 23, (i * 13) % 11}[:len(caps)]
	}
	db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: k, QueryLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rqCaps(m int) []hidden.Capability {
	out := make([]hidden.Capability, m)
	for i := range out {
		out[i] = hidden.RQ
	}
	return out
}

func TestCanonicallyEqualQueriesShareOneEntry(t *testing.T) {
	db := mkDB(t, 50, rqCaps(2), 5, 0)
	c := New(Config{})
	v := c.Wrap(db)

	// Four spellings of the same box, in different predicate orders.
	queries := []query.Q{
		{{Attr: 0, Op: query.LT, Value: 10}, {Attr: 1, Op: query.GE, Value: 3}},
		{{Attr: 1, Op: query.GE, Value: 3}, {Attr: 0, Op: query.LT, Value: 10}},
		{{Attr: 0, Op: query.LE, Value: 9}, {Attr: 1, Op: query.GT, Value: 2}},
		{{Attr: 1, Op: query.GT, Value: 2}, {Attr: 0, Op: query.LE, Value: 9}, {Attr: 0, Op: query.LE, Value: 12}},
	}
	var first hidden.Result
	for i, q := range queries {
		res, err := v.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if fmt.Sprint(res.Tuples) != fmt.Sprint(first.Tuples) || res.Overflow != first.Overflow {
			t.Fatalf("query %d answered differently from its canonical twin", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 miss + 3 hits", s)
	}
	if db.QueriesIssued() != 1 {
		t.Fatalf("backend served %d queries, want 1", db.QueriesIssued())
	}
	if s.DedupRatio() != 0.75 {
		t.Fatalf("dedup ratio %v, want 0.75", s.DedupRatio())
	}
}

func TestCachedHitsConsumeNoRateLimitBudget(t *testing.T) {
	db := mkDB(t, 50, rqCaps(2), 5, 1) // backend allows exactly one query
	v := New(Config{}).Wrap(db)
	q := query.Q{{Attr: 0, Op: query.LT, Value: 9}}
	if _, err := v.Query(q); err != nil {
		t.Fatalf("first query: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := v.Query(q.Clone()); err != nil {
			t.Fatalf("cached hit %d consumed the rate limit: %v", i, err)
		}
	}
	// A genuinely new query must still hit the exhausted limit.
	if _, err := v.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5}}); !errors.Is(err, hidden.ErrRateLimited) {
		t.Fatalf("new query = %v, want ErrRateLimited", err)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	db := mkDB(t, 50, rqCaps(2), 5, 0)
	v := New(Config{}).Wrap(db)
	bad := query.Q{{Attr: 7, Op: query.LT, Value: 1}}
	if _, err := v.Query(bad); err == nil {
		t.Fatal("expected a bad-query error")
	}
	if _, err := v.Query(bad); err == nil {
		t.Fatal("expected the error again (errors must not be memoized as answers)")
	}
	if got := v.Cache().Len(); got != 0 {
		t.Fatalf("cache holds %d entries after only failed queries", got)
	}
	// A query the database rejects as malformed is rejected by the view
	// too, even once the unconstrained box it would canonicalize to is
	// cached.
	if _, err := v.Query(nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []query.Q{
		{{Attr: 0, Op: query.Op(9), Value: 1}},
		{{Attr: 7, Op: query.LT, Value: 1}},
		{{Attr: -1, Op: query.LT, Value: 1}},
	} {
		if _, err := db.Query(bad); !errors.Is(err, hidden.ErrBadQuery) {
			t.Fatalf("database answered %v with %v, want ErrBadQuery", bad, err)
		}
		if res, err := v.Query(bad); !errors.Is(err, hidden.ErrBadQuery) || len(res.Tuples) != 0 {
			t.Errorf("view answered %v with %d rows, %v; want ErrBadQuery", bad, len(res.Tuples), err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	db := mkDB(t, 60, rqCaps(2), 5, 0)
	c := New(Config{MaxEntries: 4})
	v := c.Wrap(db)
	for i := 0; i < 8; i++ {
		if _, err := v.Query(query.Q{{Attr: 0, Op: query.LE, Value: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, bound is 4", c.Len())
	}
	s := c.Stats()
	if s.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", s.Evictions)
	}
	// The most recent 4 are hits; the evicted ones miss again.
	before := db.QueriesIssued()
	for i := 4; i < 8; i++ {
		if _, err := v.Query(query.Q{{Attr: 0, Op: query.LE, Value: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if db.QueriesIssued() != before {
		t.Fatal("recently used entries were evicted out of LRU order")
	}
	if _, err := v.Query(query.Q{{Attr: 0, Op: query.LE, Value: 0}}); err != nil {
		t.Fatal(err)
	}
	if db.QueriesIssued() != before+1 {
		t.Fatal("oldest entry should have been evicted and re-fetched")
	}
}

// TestShardStats checks the per-shard telemetry view stays consistent
// with the exact global accounting: occupancy sums to Len and evictions
// sum to Stats().Evictions.
func TestShardStats(t *testing.T) {
	db := mkDB(t, 60, rqCaps(2), 5, 0)
	c := New(Config{MaxEntries: 4})
	v := c.Wrap(db)
	for i := 0; i < 8; i++ {
		if _, err := v.Query(query.Q{{Attr: 0, Op: query.LE, Value: i}}); err != nil {
			t.Fatal(err)
		}
	}
	shards := c.ShardStats()
	if len(shards) != c.NumShards() {
		t.Fatalf("ShardStats returned %d shards, cache has %d", len(shards), c.NumShards())
	}
	entries, evictions := 0, 0
	for _, s := range shards {
		entries += s.Entries
		evictions += s.Evictions
	}
	if entries != c.Len() {
		t.Fatalf("shard entries sum to %d, Len() = %d", entries, c.Len())
	}
	if want := c.Stats().Evictions; evictions != want {
		t.Fatalf("shard evictions sum to %d, Stats().Evictions = %d", evictions, want)
	}
	if evictions != 4 {
		t.Fatalf("evictions = %d, want 4", evictions)
	}
}

// blockingBackend parks every Query until released, counting arrivals;
// a released query fails with fail when it is set.
type blockingBackend struct {
	arrived atomic.Int64
	release chan struct{}
	fail    error
}

func (b *blockingBackend) Query(q query.Q) (hidden.Result, error) {
	b.arrived.Add(1)
	<-b.release
	if b.fail != nil {
		return hidden.Result{}, b.fail
	}
	return hidden.Result{Tuples: [][]int{{1, 1}}}, nil
}
func (b *blockingBackend) NumAttrs() int               { return 2 }
func (b *blockingBackend) K() int                      { return 5 }
func (b *blockingBackend) Cap(i int) hidden.Capability { return hidden.RQ }
func (b *blockingBackend) Domain(i int) query.Interval { return query.Interval{Lo: 0, Hi: 99} }

func TestSingleflightCoalescesConcurrentDuplicates(t *testing.T) {
	back := &blockingBackend{release: make(chan struct{})}
	c := New(Config{})
	v := c.Wrap(back)
	q := query.Q{{Attr: 0, Op: query.LT, Value: 42}}

	const askers = 16
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := v.Query(q.Clone())
			if err != nil || len(res.Tuples) != 1 {
				t.Errorf("coalesced query: res=%v err=%v", res, err)
			}
		}()
	}
	// Wait until the leader reaches the backend, then release everyone.
	for back.arrived.Load() == 0 {
		runtime.Gosched()
	}
	close(back.release)
	wg.Wait()

	if got := back.arrived.Load(); got != 1 {
		t.Fatalf("backend saw %d queries for one box, want 1", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Coalesced != askers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d deduped lookups", s, askers-1)
	}
}

func TestWrapReusesKeyspacePerBackendAndSeparatesBackends(t *testing.T) {
	a := mkDB(t, 40, rqCaps(2), 5, 0)
	b := mkDB(t, 70, rqCaps(2), 5, 0)
	c := New(Config{})
	q := query.Q{{Attr: 0, Op: query.LT, Value: 9}}

	va1, va2, vb := c.Wrap(a), c.Wrap(a), c.Wrap(b)
	if _, err := va1.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := va2.Query(q.Clone()); err != nil {
		t.Fatal(err)
	}
	if a.QueriesIssued() != 1 {
		t.Fatalf("re-wrapping the same backend lost its keyspace: %d backend queries", a.QueriesIssued())
	}
	resB, err := vb.Query(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if b.QueriesIssued() != 1 {
		t.Fatalf("distinct backend was served from another backend's cache (%d queries)", b.QueriesIssued())
	}
	wantB, _ := b.Query(q.Clone())
	if fmt.Sprint(resB.Tuples) != fmt.Sprint(wantB.Tuples) {
		t.Fatal("cached answer differs from the backend's own answer")
	}
}

func TestHitsReturnDefensiveCopies(t *testing.T) {
	db := mkDB(t, 30, rqCaps(2), 5, 0)
	v := New(Config{}).Wrap(db)
	q := query.Q{{Attr: 0, Op: query.LT, Value: 12}}
	r1, err := v.Query(q)
	if err != nil || len(r1.Tuples) == 0 {
		t.Fatalf("res=%v err=%v", r1, err)
	}
	r1.Tuples[0][0] = -999
	r2, err := v.Query(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tuples[0][0] == -999 {
		t.Fatal("a caller's mutation leaked into the cache")
	}
}
