package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
	"hiddensky/internal/query"
)

// instrumentedDB wraps a backend with mutating shared state (a query log
// and counters guarded by one mutex) so that `go test -race` observes the
// engine's access pattern, and so tests can assert exact query accounting:
// no query lost, none double-counted.
type instrumentedDB struct {
	db    Interface
	delay time.Duration // per-query latency (lets overlap shows up on 1 CPU)

	mu       sync.Mutex
	served   int
	log      []string
	inUse    int // queries currently inside Query
	maxInUse int
}

func (i *instrumentedDB) Query(q query.Q) (hidden.Result, error) {
	i.mu.Lock()
	i.inUse++
	if i.inUse > i.maxInUse {
		i.maxInUse = i.inUse
	}
	i.log = append(i.log, q.String())
	i.mu.Unlock()

	if i.delay > 0 {
		time.Sleep(i.delay)
	}
	res, err := i.db.Query(q)

	i.mu.Lock()
	i.inUse--
	if err == nil {
		i.served++
	}
	i.mu.Unlock()
	return res, err
}
func (i *instrumentedDB) NumAttrs() int               { return i.db.NumAttrs() }
func (i *instrumentedDB) K() int                      { return i.db.K() }
func (i *instrumentedDB) Cap(a int) hidden.Capability { return i.db.Cap(a) }
func (i *instrumentedDB) Domain(a int) query.Interval { return i.db.Domain(a) }

func (i *instrumentedDB) stats() (served, maxInUse int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.served, i.maxInUse
}

// parallelWorkloads mirrors the seed datasets/rankings of the sequential
// tests: every capability mixture, several rankings, several shapes.
func parallelWorkloads(t *testing.T) []struct {
	name string
	mk   func() *hidden.DB
	algo func(Interface, Options) (Result, error)
} {
	rng := rand.New(rand.NewSource(11))
	type wl = struct {
		name string
		mk   func() *hidden.DB
		algo func(Interface, Options) (Result, error)
	}
	var out []wl
	for _, r := range testRankings {
		rank := r.rank
		data3 := randData(rng, 400, 3, 40)
		data4 := randData(rng, 300, 4, 25)
		pqData := randData(rng, 250, 3, 9)
		out = append(out,
			wl{"sq-" + r.name, func() *hidden.DB { return mkDB(t, data3, capsAll(3, hidden.SQ), 5, rank) }, sqDBSky},
			wl{"rq-" + r.name, func() *hidden.DB { return mkDB(t, data4, capsAll(4, hidden.RQ), 5, rank) }, rqDBSky},
			wl{"pq-" + r.name, func() *hidden.DB { return mkDB(t, pqData, capsAll(3, hidden.PQ), 4, rank) }, pqDBSky},
			wl{"mq-" + r.name, func() *hidden.DB {
				return mkDB(t, data3, []hidden.Capability{hidden.RQ, hidden.SQ, hidden.PQ}, 5, rank)
			}, mqDBSky},
		)
	}
	return out
}

// TestParallelMatchesSequential is the core acceptance property: for every
// workload, Discover with Parallelism > 1 (with and without the cache)
// returns a skyline identical as a set to the sequential run, with exact
// query accounting against the instrumented backend.
func TestParallelMatchesSequential(t *testing.T) {
	for _, w := range parallelWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			seq, err := w.algo(w.mk(), Options{})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}

			inst := &instrumentedDB{db: w.mk()}
			par, err := w.algo(inst, Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if ok, diff := sameTupleSet(par.Skyline, seq.Skyline); !ok {
				t.Fatalf("parallel skyline differs from sequential: %s", diff)
			}
			if !par.Complete {
				t.Fatal("parallel run not marked complete")
			}
			served, _ := inst.stats()
			if par.Queries != served {
				t.Fatalf("accounting: reported %d queries, backend served %d", par.Queries, served)
			}

			cache := qcache.New(qcache.Config{})
			cached, err := w.algo(w.mk(), Options{Parallelism: 4, Cache: cache})
			if err != nil {
				t.Fatalf("parallel+cache: %v", err)
			}
			if ok, diff := sameTupleSet(cached.Skyline, seq.Skyline); !ok {
				t.Fatalf("parallel+cache skyline differs: %s", diff)
			}
			if s := cache.Stats(); s.Lookups != cached.Queries {
				t.Fatalf("cache saw %d lookups, algorithm issued %d", s.Lookups, cached.Queries)
			}
		})
	}
}

// TestParallelSkylineOrderIsDeterministic: the parallel contract includes
// a deterministic merge — same skyline in the same (lexicographic) order
// on every run, whatever the scheduler does.
func TestParallelSkylineOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randData(rng, 500, 3, 30)
	var prev Result
	for run := 0; run < 4; run++ {
		res, err := rqDBSky(mkDB(t, data, capsAll(3, hidden.RQ), 5, hidden.SumRank{}), Options{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			prev = res
			continue
		}
		if len(res.Skyline) != len(prev.Skyline) {
			t.Fatalf("run %d: %d skyline tuples, previous run had %d", run, len(res.Skyline), len(prev.Skyline))
		}
		for i := range res.Skyline {
			for j := range res.Skyline[i] {
				if res.Skyline[i][j] != prev.Skyline[i][j] {
					t.Fatalf("run %d: skyline order diverged at tuple %d", run, i)
				}
			}
		}
	}
}

// TestParallelBudgetIsExact: with many workers racing one MaxQueries
// budget, never more than MaxQueries backend queries are issued, the
// count is exact, and the anytime contract (partial skyline + ErrBudget)
// holds.
func TestParallelBudgetIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := randData(rng, 800, 4, 100)
	const k = 5
	full, err := rqDBSky(mkDB(t, data, capsAll(4, hidden.RQ), k, hidden.SumRank{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 7, full.Queries / 3} {
		inst := &instrumentedDB{db: mkDB(t, data, capsAll(4, hidden.RQ), k, hidden.SumRank{})}
		res, err := rqDBSky(inst, Options{Parallelism: 8, MaxQueries: budget})
		// budget*k answered tuples cannot even contain the full skyline ⇒
		// completion is provably impossible and ErrBudget mandatory; for
		// looser budgets a (nondeterministically cheaper) parallel run may
		// legitimately finish.
		if budget*k < len(full.Skyline) && !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		served, _ := inst.stats()
		if served > budget {
			t.Fatalf("budget %d: backend served %d queries", budget, served)
		}
		if res.Queries != served {
			t.Fatalf("budget %d: reported %d, served %d", budget, res.Queries, served)
		}
		if errors.Is(err, ErrBudget) && res.Complete {
			t.Fatalf("budget %d: truncated run marked complete", budget)
		}
	}
}

// TestParallelActuallyRunsConcurrently guards against the executor
// silently degrading to sequential: with 8 workers the instrumented
// backend must observe overlapping queries.
func TestParallelActuallyRunsConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := randData(rng, 2000, 4, 60)
	inst := &instrumentedDB{db: mkDB(t, data, capsAll(4, hidden.RQ), 5, hidden.SumRank{}), delay: time.Millisecond}
	if _, err := rqDBSky(inst, Options{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	if _, maxInUse := inst.stats(); maxInUse < 2 {
		t.Fatalf("max concurrent backend queries = %d; the pool never overlapped work", maxInUse)
	}
}

// TestCacheDedupAcrossRuns: re-running a discovery against the same cache
// answers (nearly) everything from memory — the dedup ratio the engine
// figure reports must be strictly positive on RQ and PQ workloads.
func TestCacheDedupAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct {
		name string
		caps []hidden.Capability
		algo func(Interface, Options) (Result, error)
	}{
		{"rq", capsAll(3, hidden.RQ), rqDBSky},
		{"pq", capsAll(3, hidden.PQ), pqDBSky},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := randData(rng, 300, 3, 12)
			db := mkDB(t, data, tc.caps, 5, hidden.SumRank{})
			cache := qcache.New(qcache.Config{})
			first, err := tc.algo(db, Options{Cache: cache, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			second, err := tc.algo(db, Options{Cache: cache, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := sameTupleSet(first.Skyline, second.Skyline); !ok {
				t.Fatalf("cached re-run changed the skyline: %s", diff)
			}
			s := cache.Stats()
			if s.DedupRatio() <= 0 {
				t.Fatalf("dedup ratio %v, want > 0 (stats %+v)", s.DedupRatio(), s)
			}
			if db.QueriesIssued() != s.Misses {
				t.Fatalf("backend served %d, cache recorded %d misses", db.QueriesIssued(), s.Misses)
			}
		})
	}
}

// TestDiscoverThreadsParallelismAndCache: the façade-level Discover must
// honor both options for every interface mixture (it dispatches to all
// the specialized algorithms).
func TestDiscoverThreadsParallelismAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	data := randData(rng, 300, 3, 15)
	for _, caps := range [][]hidden.Capability{
		capsAll(3, hidden.SQ),
		capsAll(3, hidden.RQ),
		capsAll(3, hidden.PQ),
		{hidden.SQ, hidden.RQ, hidden.PQ},
	} {
		seq, err := Discover(mkDB(t, data, caps, 5, hidden.LexRank{}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache := qcache.New(qcache.Config{})
		par, err := Discover(mkDB(t, data, caps, 5, hidden.LexRank{}), Options{Parallelism: 6, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameTupleSet(par.Skyline, seq.Skyline); !ok {
			t.Fatalf("caps %v: parallel skyline differs: %s", caps, diff)
		}
		if cache.Stats().Lookups == 0 {
			t.Fatalf("caps %v: cache was never consulted", caps)
		}
	}
}
