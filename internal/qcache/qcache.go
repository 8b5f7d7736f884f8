// Package qcache is a concurrency-safe memoizing front for hidden-database
// interfaces. Discovery cascades re-ask the same top-k question in many
// syntactic guises — across sibling subtrees, across algorithm phases,
// across repeated runs, and across the members of a federated fleet — and
// every duplicate costs a real (rate-limited, network-priced) web query.
// The cache removes that cost three ways:
//
//   - canonicalization: each conjunctive query is reduced to its canonical
//     box under the backend's advertised domains (multiple predicates per
//     attribute intersect, "A0 < 5" and "A0 <= 4" coincide, predicate order
//     is irrelevant), so syntactically different but semantically identical
//     queries share one cache entry;
//   - memoization: answered boxes are kept in an LRU-bounded store and
//     served back without touching the backend — a cached hit consumes no
//     rate-limit budget;
//   - in-flight deduplication (singleflight): concurrent askers of one box
//     share a single backend query, so a parallel discovery run never pays
//     for the same answer twice even before it is cached.
//
// The store is sharded for contention-free parallel lookups: entries are
// spread over N independent shards, each with its own mutex, LRU list and
// one map that holds both answered boxes and boxes whose backend query is
// still in flight. A lookup canonicalizes the query once and hashes the
// box once (query.Box.Fingerprint, deterministic, so which entries a
// bounded cache evicts — and hence the query count — repeats exactly);
// that hash, mixed with the keyspace id, picks the shard and keys the
// map. Each entry also keeps its full canonical key (the keyspace id and
// every bound as varints), and only a full-key match serves an answer.
// A miss allocates its key and its entry; the channel coalesced callers
// wait on is made only when a second caller asks for the same box while
// the first is still waiting on the backend. The global hit/miss/
// coalesced counters are atomics, so the 8- or 16-goroutine lookup
// storms of a parallel discovery run or a fleet never serialize on one
// lock. Accounting stays exact: every lookup is classified hit,
// coalesced or miss under its shard's lock, and the number of misses
// equals the number of queries the backend actually served.
//
// One Cache may front many backends (a fleet shares one store and one
// entry budget); answers are keyed per backend, so distinct databases
// never cross-contaminate.
package qcache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
)

// Backend is the minimal querying surface the cache wraps — structurally
// identical to core.Interface (restated here so core can depend on qcache
// without an import cycle).
type Backend interface {
	Query(q query.Q) (hidden.Result, error)
	NumAttrs() int
	K() int
	Cap(i int) hidden.Capability
	Domain(i int) query.Interval
}

// Config tunes a Cache.
type Config struct {
	// MaxEntries bounds the number of memoized answers across all wrapped
	// backends; the least recently used entry is evicted beyond it.
	// Zero picks DefaultMaxEntries; negative means unbounded.
	MaxEntries int
	// Shards is the number of independent lock domains the entry store is
	// split across (rounded up to a power of two, and capped so a bounded
	// cache keeps at least one entry per shard — MaxEntries stays an
	// exact global bound). Zero picks DefaultShards for large caches, and
	// a single shard when MaxEntries is small (below DefaultShards
	// entries per shard) — a single shard keeps the LRU eviction order
	// globally exact, which tiny caches care about and huge ones don't.
	Shards int
}

// DefaultMaxEntries is the entry bound used when Config.MaxEntries is 0.
const DefaultMaxEntries = 1 << 16

// DefaultShards is the shard count used when Config.Shards is 0 and the
// cache is large enough to spread: enough lock domains that a 16-worker
// discovery run rarely collides, few enough that the per-shard LRU bound
// stays meaningful.
const DefaultShards = 16

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Lookups counts every Query served through the cache.
	Lookups int
	// Hits counts lookups answered from the memo store.
	Hits int
	// Coalesced counts lookups that shared another caller's in-flight
	// backend query (the singleflight dedup).
	Coalesced int
	// Misses counts lookups that paid a backend query (Lookups - Hits -
	// Coalesced); this is what the backend actually served.
	Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
}

// DedupRatio is the fraction of lookups answered without a backend query.
func (s Stats) DedupRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(s.Lookups)
}

// entry is one canonical box's slot in its shard. A pending entry
// stands for a backend query in flight: its first asker (the leader)
// runs the query, later askers coalesce on it. A ready entry holds the
// memoized answer and sits on the shard's LRU list. Entries whose hashes
// collide chain through same; key equality decides every match.
type entry struct {
	hash       uint64        // box fingerprint mixed with the keyspace id: the map key
	key        string        // full canonical key (varint keyspace id and bounds)
	same       *entry        // next entry with the same hash
	pending    bool          // backend query in flight; res and err not yet set
	done       chan struct{} // made by the first coalescing caller, closed by the leader
	res        hidden.Result
	err        error  // the leader's failure, for its coalesced waiters
	prev, next *entry // LRU links, ready entries only
}

// shard is one independent lock domain of the memo store: its own mutex,
// entry map (pending and ready entries alike), LRU list and entry bound.
// Padded so two shards' mutexes never share a cache line (false sharing
// would hand the contention right back).
type shard struct {
	mu        sync.Mutex
	max       int // per-shard bound on ready entries; <= 0 means unbounded
	ready     int // ready entries, all on the LRU list
	entries   map[uint64]*entry
	head      *entry // most recently used
	tail      *entry // least recently used
	evictions int64  // entries this shard dropped; guarded by mu
	_         [64]byte
}

// Cache is the shared memo store. Safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64

	// Global counters, atomically bumped under the owning shard's lock —
	// exact totals without a global mutex.
	lookups, hits, coalesced, misses, evictions atomic.Int64

	// bindings ties wrapped backends to keyspace ids so that re-wrapping
	// the same backend reuses its cached answers. Map-keyed on the
	// backend (O(1) per Wrap, however many stores a fleet registers);
	// bindOrder keeps FIFO eviction order for the maxBindings bound.
	bmu       sync.Mutex
	bindings  map[Backend]uint64
	bindOrder []Backend
	nextID    uint64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	max := cfg.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
		if max > 0 && max < DefaultShards*DefaultShards {
			// A small bounded cache keeps one shard: sharding a tiny LRU
			// would make eviction order depend on key hashes.
			n = 1
		}
	}
	// Round up to a power of two so shard selection is a mask — then cap
	// the count so a bounded cache keeps at least one entry per shard
	// (more shards than entries would silently raise the global bound).
	pow := 1
	for pow < n {
		pow <<= 1
	}
	if max > 0 {
		for pow > 1 && max/pow == 0 {
			pow >>= 1
		}
	}
	c := &Cache{
		shards:   make([]shard, pow),
		mask:     uint64(pow - 1),
		bindings: map[Backend]uint64{},
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = map[uint64]*entry{}
		if max > 0 {
			// Distribute the bound: the first (max % pow) shards take the
			// remainder, so the per-shard bounds sum exactly to max (the
			// cap above guarantees max/pow >= 1).
			sh.max = max / pow
			if i < max%pow {
				sh.max++
			}
		} else {
			sh.max = -1
		}
	}
	return c
}

// NumShards returns the number of independent lock domains.
func (c *Cache) NumShards() int { return len(c.shards) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:   int(c.lookups.Load()),
		Hits:      int(c.hits.Load()),
		Coalesced: int(c.coalesced.Load()),
		Misses:    int(c.misses.Load()),
		Evictions: int(c.evictions.Load()),
	}
}

// ShardStat is one shard's live occupancy and eviction history —
// the per-lock-domain view behind the global Stats aggregate. A
// lopsided Entries spread means the key hash is clustering; Evictions
// concentrated on few shards means those shards' LRU bounds are the
// ones under pressure.
type ShardStat struct {
	// Entries is the number of memoized answers the shard holds now.
	Entries int `json:"entries"`
	// Evictions counts entries this shard has dropped over its lifetime.
	Evictions int `json:"evictions"`
}

// ShardStats snapshots every shard. Shards are locked one at a time, so
// the snapshot is per-shard exact but not a global atomic cut (fine for
// telemetry; Stats remains the exact global accounting).
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = ShardStat{Entries: sh.ready, Evictions: int(sh.evictions)}
		sh.mu.Unlock()
	}
	return out
}

// ShardStat snapshots one shard without allocating — the form the
// metrics GaugeFuncs use, where ShardStats' slice-per-scrape would
// show up on the sampler's tick path.
func (c *Cache) ShardStat(i int) ShardStat {
	sh := &c.shards[i]
	sh.mu.Lock()
	st := ShardStat{Entries: sh.ready, Evictions: int(sh.evictions)}
	sh.mu.Unlock()
	return st
}

// Evictions returns the lifetime eviction total across all shards.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len returns the number of memoized answers currently held.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.ready
		sh.mu.Unlock()
	}
	return n
}

// Wrap returns a view of db that serves repeated queries from the cache.
// Wrapping the same backend again reuses its keyspace, so answers survive
// across discovery runs; distinct backends never share answers.
func (c *Cache) Wrap(db Backend) *DB { return c.WrapAs(db, db) }

// maxBindings bounds the remembered backend→keyspace identities. Beyond
// it the oldest binding is forgotten (FIFO): its entries become
// unreachable and age out of the LRU, and re-wrapping that backend simply
// starts a fresh keyspace. This keeps a long-lived shared Cache from
// leaking when it fronts a stream of ephemeral wrappers (e.g. one
// filtered view per request).
const maxBindings = 1024

// WrapAs is Wrap with an explicit identity: answers are keyed by identity
// while queries are executed through db. Fleets use it to keep a stable
// keyspace for a store whose querying path is re-wrapped per run (e.g. a
// fresh budget gate each fleet call): identity is the bare store, db the
// gated view. The caller must guarantee db answers exactly as identity
// does (gates and instrumentation are answer-transparent; a different
// database is not).
func (c *Cache) WrapAs(identity, db Backend) *DB {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	ok := comparable_(identity)
	if ok {
		if id, found := c.bindings[identity]; found {
			return c.bind(id, db)
		}
	}
	c.nextID++
	id := c.nextID
	if ok {
		// Non-comparable backends are not remembered (they could never be
		// found again); they simply forgo cross-run keyspace reuse.
		c.bindings[identity] = id
		c.bindOrder = append(c.bindOrder, identity)
		if len(c.bindOrder) > maxBindings {
			oldest := c.bindOrder[0]
			c.bindOrder = append(c.bindOrder[:0:0], c.bindOrder[1:]...)
			delete(c.bindings, oldest)
		}
	}
	return c.bind(id, db)
}

// comparable_ reports whether the interface value supports ==. Backends
// are normally pointers (always comparable); exotic non-comparable
// implementations just forgo cross-run reuse.
func comparable_(db Backend) (ok bool) {
	switch db.(type) {
	case nil:
		return false
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	type probe struct{ b Backend }
	return probe{db} == probe{db}
}

func (c *Cache) bind(id uint64, db Backend) *DB {
	m := db.NumAttrs()
	domains := make([]query.Interval, m)
	for i := 0; i < m; i++ {
		domains[i] = db.Domain(i)
	}
	return &DB{cache: c, id: id, db: db, domains: domains}
}

// lruFront moves e to the shard's most-recently-used position. Callers
// hold sh.mu.
func (sh *shard) lruFront(e *entry) {
	if sh.head == e {
		return
	}
	// unlink
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	// push front
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// find returns the entry for key among those under hash h, or nil. A
// hash match alone never serves: the full key decides. Callers hold
// sh.mu.
func (sh *shard) find(h uint64, key []byte) *entry {
	for e := sh.entries[h]; e != nil; e = e.same {
		if e.key == string(key) {
			return e
		}
	}
	return nil
}

// insert adds a pending entry for key under hash h, at the head of the
// hash's chain. Callers hold sh.mu.
func (sh *shard) insert(h uint64, key []byte) *entry {
	e := &entry{hash: h, key: string(key), same: sh.entries[h], pending: true}
	sh.entries[h] = e
	return e
}

// publish turns the leader's pending entry into a memoized answer at the
// front of the LRU list, evicting the shard's least recently used entry
// beyond its bound. Callers hold sh.mu; the eviction counter is global.
func (sh *shard) publish(c *Cache, e *entry, res hidden.Result) {
	e.res = res
	e.pending = false
	sh.lruFront(e)
	sh.ready++
	if sh.max > 0 && sh.ready > sh.max {
		// The bound is at least 1 and e is at the front, so the tail is
		// another entry.
		lru := sh.tail
		sh.tail = lru.prev
		sh.tail.next = nil
		lru.prev = nil
		sh.remove(lru)
		sh.ready--
		sh.evictions++
		c.evictions.Add(1)
	}
}

// remove unlinks e from its hash chain in the map (not from the LRU
// list). Callers hold sh.mu.
func (sh *shard) remove(e *entry) {
	head := sh.entries[e.hash]
	if head == e {
		if e.same == nil {
			delete(sh.entries, e.hash)
		} else {
			sh.entries[e.hash] = e.same
		}
		return
	}
	for p := head; p != nil; p = p.same {
		if p.same == e {
			p.same = e.same
			return
		}
	}
}

// DB is one backend's cached view; it implements the same interface as the
// backend it wraps, so discovery algorithms use it unchanged.
type DB struct {
	cache   *Cache
	id      uint64
	db      Backend
	domains []query.Interval
	tracer  *obs.Tracer // nil: untraced lookups
	parent  uint64      // span id lookup spans hang under
}

// Unwrap returns the backend beneath the cache.
func (d *DB) Unwrap() Backend { return d.db }

// Cache returns the shared store this view draws from.
func (d *DB) Cache() *Cache { return d.cache }

// WithTracer returns a view of this cached backend whose lookups each
// record one "qcache.lookup" span under parent, annotated with the
// canonical key's fingerprint and the outcome (hit / miss /
// coalesced). The view shares the store and keyspace, so a serving
// layer hands each job a traced handle without re-binding the backend.
// Tracing adds no heap allocation to the hit path.
func (d *DB) WithTracer(t *obs.Tracer, parent uint64) *DB {
	v := *d
	v.tracer = t
	v.parent = parent
	return &v
}

// keyStackAttrs is the attribute count up to which key derivation runs
// entirely on the stack (scratch intervals + key bytes). Wider schemas
// fall back to heap buffers; 16 covers every dataset in the repository.
const keyStackAttrs = 16

// keyStackBytes is the longest key of a keyStackAttrs-attribute schema.
const keyStackBytes = binary.MaxVarintLen64 * (1 + 2*keyStackAttrs)

// canonKey renders the query's canonical box in d's keyspace as a
// compact binary key: the keyspace id as a uvarint, then each
// attribute's Lo and Hi as zigzag varints. Varints are self-delimiting
// and the id fixes the attribute count, so distinct (keyspace, box)
// pairs never share a key; small bounds take a byte or two instead of
// eight. It also returns the box's fingerprint. The box under the
// advertised domains is a complete invariant of the query's semantics on
// this backend (integer attributes), which is what makes memoization
// safe across every capability mixture.
func (d *DB) canonKey(dst []byte, scratch []query.Interval, q query.Q) ([]byte, uint64) {
	box := q.CanonicalizeInto(scratch, d.domains)
	dst = binary.AppendUvarint(dst, d.id)
	for _, iv := range box.Dims {
		dst = binary.AppendVarint(dst, int64(iv.Lo))
		dst = binary.AppendVarint(dst, int64(iv.Hi))
	}
	return dst, box.Fingerprint()
}

// Query implements the hidden-database interface with memoization and
// in-flight deduplication. Cached and coalesced answers never reach the
// backend, so they consume no rate-limit budget. The key is built in
// stack buffers and matched through the no-copy string view of those
// bytes, so a hit's only allocations are the answer copy handed to the
// caller (two: the row slice and one flat backing array). A miss adds
// its key and its entry, and a channel once another caller coalesces.
func (d *DB) Query(q query.Q) (hidden.Result, error) {
	// A malformed query has no box: its key would be another query's.
	if err := q.Validate(len(d.domains)); err != nil {
		return hidden.Result{}, fmt.Errorf("%w: %w", hidden.ErrBadQuery, err)
	}
	var keyArr [keyStackBytes]byte
	var ivArr [keyStackAttrs]query.Interval
	key, fp := d.canonKey(keyArr[:0], ivArr[:0], q)
	c := d.cache
	// The golden-ratio multiply spreads keyspace ids over the shards, so
	// one box in many keyspaces does not pile onto one shard.
	h := fp ^ d.id*0x9e3779b97f4a7c15
	sh := &c.shards[h&c.mask]
	sp := d.tracer.Start("qcache.lookup", d.parent)
	sp.SetInt("key", int64(fp))

	sh.mu.Lock()
	c.lookups.Add(1)
	if e := sh.find(h, key); e != nil {
		if !e.pending {
			c.hits.Add(1)
			sh.lruFront(e)
			res := e.res
			sh.mu.Unlock()
			sp.SetStr("outcome", "hit")
			sp.End()
			// Copy outside the critical section: a published answer's
			// backing arrays are never mutated (callers only ever
			// receive copies), so the lock protects just the map/LRU
			// bookkeeping — the hot hit path holds it for tens of
			// nanoseconds.
			return copyResult(res), nil
		}
		c.coalesced.Add(1)
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		sh.mu.Unlock()
		<-done
		sp.SetStr("outcome", "coalesced")
		sp.End()
		// The leader set res/err before closing done and never touches
		// them again.
		if e.err != nil {
			return hidden.Result{}, e.err
		}
		return copyResult(e.res), nil
	}
	e := sh.insert(h, key)
	c.misses.Add(1)
	sh.mu.Unlock()
	sp.SetStr("outcome", "miss")

	res, err := d.db.Query(q)

	sh.mu.Lock()
	if err == nil {
		sh.publish(c, e, res)
	} else {
		// Errors are never cached: the next asker misses afresh.
		e.err = err
		sh.remove(e)
	}
	done := e.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	sp.End()

	if err != nil {
		return hidden.Result{}, err
	}
	return copyResult(res), nil
}

// NumAttrs implements the hidden-database interface.
func (d *DB) NumAttrs() int { return d.db.NumAttrs() }

// K implements the hidden-database interface.
func (d *DB) K() int { return d.db.K() }

// Cap implements the hidden-database interface.
func (d *DB) Cap(i int) hidden.Capability { return d.db.Cap(i) }

// Domain implements the hidden-database interface.
func (d *DB) Domain(i int) query.Interval { return d.domains[i] }

// copyResult deep-copies the tuples so concurrent callers can never alias
// each other's (or the cache's) answer. The rows share one flat backing
// array (two allocations instead of 1+k), capped so a caller's append
// cannot cross into the next row.
func copyResult(r hidden.Result) hidden.Result {
	out := hidden.Result{Overflow: r.Overflow}
	if r.Tuples != nil {
		out.Tuples = make([][]int, len(r.Tuples))
		width := 0
		for _, t := range r.Tuples {
			width += len(t)
		}
		flat := make([]int, 0, width)
		for i, t := range r.Tuples {
			start := len(flat)
			flat = append(flat, t...)
			out.Tuples[i] = flat[start:len(flat):len(flat)]
		}
	}
	return out
}
