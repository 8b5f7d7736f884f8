package qcache

// The retained reference implementation of the cache: the seed's
// single-global-mutex design (one mutex over every lookup, LRU move and
// stats bump; a strconv string key per lookup; the defensive result
// copy made under the lock), kept verbatim as the oracle of the parity
// suite in shard_test.go, which proves the sharded cache
// observationally identical to it (same answers, same exact
// hit/miss/coalesced accounting) under concurrent load. It is test
// code only.

import (
	"strconv"
	"sync"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// refEntry is one memoized answer, on the reference cache's LRU list.
type refEntry struct {
	key        string
	res        hidden.Result
	prev, next *refEntry
}

// refCall is one in-flight backend query being shared.
type refCall struct {
	done chan struct{}
	res  hidden.Result
	err  error
}

// RefCache is the seed's shared memo store: one mutex over everything.
type RefCache struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*refEntry
	inflight map[string]*refCall
	head     *refEntry // most recently used
	tail     *refEntry // least recently used
	stats    Stats

	bindings []refBinding
	nextID   uint64
}

// refBinding ties a wrapped backend to its keyspace id (linear scan —
// the O(bindings) lookup the sharded cache's map replaced).
type refBinding struct {
	db Backend
	id uint64
}

// NewRef returns an empty reference cache.
func NewRef(cfg Config) *RefCache {
	max := cfg.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	return &RefCache{
		max:      max,
		entries:  map[string]*refEntry{},
		inflight: map[string]*refCall{},
	}
}

// Stats returns a snapshot of the counters.
func (c *RefCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memoized answers currently held.
func (c *RefCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Wrap returns a view of db that serves repeated queries from the cache.
func (c *RefCache) Wrap(db Backend) *RefDB { return c.WrapAs(db, db) }

// WrapAs is Wrap with an explicit identity (see Cache.WrapAs).
func (c *RefCache) WrapAs(identity, db Backend) *RefDB {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bindings {
		if comparable_(b.db) && b.db == identity {
			return c.bind(b.id, db)
		}
	}
	c.nextID++
	c.bindings = append(c.bindings, refBinding{db: identity, id: c.nextID})
	if len(c.bindings) > maxBindings {
		c.bindings = append(c.bindings[:0:0], c.bindings[1:]...)
	}
	return c.bind(c.nextID, db)
}

func (c *RefCache) bind(id uint64, db Backend) *RefDB {
	m := db.NumAttrs()
	domains := make([]query.Interval, m)
	for i := 0; i < m; i++ {
		domains[i] = db.Domain(i)
	}
	return &RefDB{cache: c, id: id, db: db, domains: domains}
}

// lruFront moves e to the most-recently-used position.
func (c *RefCache) lruFront(e *refEntry) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// store memoizes res under key, evicting the LRU entry beyond the bound.
func (c *RefCache) store(key string, res hidden.Result) {
	if e, ok := c.entries[key]; ok {
		e.res = res
		c.lruFront(e)
		return
	}
	e := &refEntry{key: key, res: res}
	c.entries[key] = e
	c.lruFront(e)
	if c.max > 0 && len(c.entries) > c.max {
		lru := c.tail
		if lru != nil {
			if lru.prev != nil {
				lru.prev.next = nil
			}
			c.tail = lru.prev
			if c.head == lru {
				c.head = nil
			}
			delete(c.entries, lru.key)
			c.stats.Evictions++
		}
	}
}

// RefDB is one backend's cached view through the reference cache.
type RefDB struct {
	cache   *RefCache
	id      uint64
	db      Backend
	domains []query.Interval
}

// key renders the query's canonical box as the seed did: a fresh box
// allocation and strconv digit formatting per lookup.
func (d *RefDB) key(q query.Q) string {
	box := q.Canonicalize(d.domains)
	buf := make([]byte, 0, 16+12*len(box.Dims))
	buf = strconv.AppendUint(buf, d.id, 36)
	for _, iv := range box.Dims {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(iv.Lo), 36)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(iv.Hi), 36)
	}
	return string(buf)
}

// Query implements the hidden-database interface with memoization and
// in-flight deduplication, entirely under the one global mutex — the
// defensive copy of a hit runs inside the critical section.
func (d *RefDB) Query(q query.Q) (hidden.Result, error) {
	key := d.key(q)
	c := d.cache

	c.mu.Lock()
	c.stats.Lookups++
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.lruFront(e)
		res := refCopyResult(e.res)
		c.mu.Unlock()
		return res, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return hidden.Result{}, fl.err
		}
		return refCopyResult(fl.res), nil
	}
	fl := &refCall{done: make(chan struct{})}
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	fl.res, fl.err = d.db.Query(q)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.store(key, fl.res)
	}
	c.mu.Unlock()
	close(fl.done)

	if fl.err != nil {
		return hidden.Result{}, fl.err
	}
	return refCopyResult(fl.res), nil
}

// NumAttrs implements the hidden-database interface.
func (d *RefDB) NumAttrs() int { return d.db.NumAttrs() }

// K implements the hidden-database interface.
func (d *RefDB) K() int { return d.db.K() }

// Cap implements the hidden-database interface.
func (d *RefDB) Cap(i int) hidden.Capability { return d.db.Cap(i) }

// Domain implements the hidden-database interface.
func (d *RefDB) Domain(i int) query.Interval { return d.domains[i] }

// refCopyResult is the seed's per-row deep copy (1+k allocations).
func refCopyResult(r hidden.Result) hidden.Result {
	out := hidden.Result{Overflow: r.Overflow}
	if r.Tuples != nil {
		out.Tuples = make([][]int, len(r.Tuples))
		for i, t := range r.Tuples {
			out.Tuples[i] = append([]int(nil), t...)
		}
	}
	return out
}
