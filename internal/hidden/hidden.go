// Package hidden simulates a hidden web database: an in-memory table served
// exclusively through a top-k conjunctive search interface with
// per-attribute capability restrictions (one-ended range, two-ended range,
// or point predicates) and a domination-consistent proprietary ranking
// function, exactly as modeled in "Discovering the Skyline of Web
// Databases" (Asudeh et al., 2016).
//
// Clients — the discovery algorithms in internal/core and the crawler in
// internal/crawl — may only call Query; they never see the raw tuples.
package hidden

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hiddensky/internal/query"
)

// Capability describes which predicates the interface supports on one
// attribute (the paper's SQ / RQ / PQ taxonomy).
type Capability uint8

const (
	// SQ supports one-ended ranges: <, <=, = (better-than queries).
	SQ Capability = iota
	// RQ supports two-ended ranges: <, <=, =, >=, >.
	RQ
	// PQ supports point predicates only: =.
	PQ
)

// String names the capability as in the paper.
func (c Capability) String() string {
	switch c {
	case SQ:
		return "SQ"
	case RQ:
		return "RQ"
	case PQ:
		return "PQ"
	}
	return fmt.Sprintf("Capability(%d)", uint8(c))
}

// Allows reports whether the capability admits the operator.
func (c Capability) Allows(op query.Op) bool {
	switch c {
	case SQ:
		return op == query.LT || op == query.LE || op == query.EQ
	case RQ:
		return true
	case PQ:
		return op == query.EQ
	}
	return false
}

// Errors returned by DB.Query.
var (
	// ErrUnsupportedPredicate is returned when a query uses an operator the
	// attribute's capability does not allow (the website would reject it).
	ErrUnsupportedPredicate = errors.New("hidden: predicate not supported by search interface")
	// ErrRateLimited is returned once the per-client query budget is
	// exhausted (the paper's per-IP / per-API-key limits).
	ErrRateLimited = errors.New("hidden: query rate limit exceeded")
	// ErrQuotaExhausted is returned once a QueryLimit budget is spent.
	// That budget never refills, so waiting and retrying cannot help;
	// it wraps ErrRateLimited, so every anytime-stop check still
	// matches it.
	ErrQuotaExhausted = fmt.Errorf("%w: query quota exhausted", ErrRateLimited)
	// ErrBadQuery is returned for malformed queries (unknown attribute...).
	ErrBadQuery = errors.New("hidden: malformed query")
)

// Result is the answer to a top-k query.
type Result struct {
	// Tuples holds at most k matching tuples in ranking order (best first).
	// Each tuple is a copy; callers may retain them.
	Tuples [][]int
	// Overflow is true when more than k tuples matched and the answer was
	// truncated. Real interfaces expose this as "showing k of many".
	Overflow bool
}

// Top returns the best-ranked returned tuple, or nil when empty.
func (r Result) Top() []int {
	if len(r.Tuples) == 0 {
		return nil
	}
	return r.Tuples[0]
}

// Config describes a hidden database to construct.
type Config struct {
	// Data holds the ranking-attribute values of each tuple; Data[i][j] is
	// tuple i's value on attribute j, smaller preferred.
	Data [][]int
	// Caps gives the interface capability per attribute. len(Caps) must
	// equal the attribute count.
	Caps []Capability
	// K is the top-k output limit (k >= 1).
	K int
	// Rank orders the tuples; it must be domination-consistent. When nil,
	// SumRank is used.
	Rank Ranking
	// QueryLimit, when positive, bounds the number of Query calls before
	// ErrQuotaExhausted (an ErrRateLimited); zero means unlimited.
	QueryLimit int
	// Filters optionally carries per-tuple filtering-attribute values
	// (e.g., strings such as flight numbers). Filtering attributes have no
	// preferential order and no effect on the skyline; they are returned
	// alongside tuples by QueryFull for application use.
	Filters [][]string
	// Domains optionally overrides the advertised per-attribute value
	// ranges. Real search forms often advertise looser ranges than the
	// data occupies (a price slider starting at $0); each override must
	// contain the observed value range. Nil advertises the observed
	// ranges exactly.
	Domains []query.Interval
}

// rankState bundles the two views of one ranking — pos[i] is tuple i's
// position (smaller = ranked higher), byRank lists tuple indices
// best-ranked first. They must always swap together, so evaluate reads
// them through a single atomic pointer: Rerank publishes a complete
// replacement state and in-flight queries keep the one they loaded.
type rankState struct {
	pos    []int
	byRank []int32
}

// DB is the hidden database simulator.
type DB struct {
	data    [][]int
	filters [][]string
	caps    []Capability
	k       int
	domains []query.Interval

	// ranking is the current rankState; queries load it once and never
	// see a torn mix of old positions with a new by-rank order, which is
	// what lets Rerank drift the proprietary ranking mid-crawl without a
	// lock on the query path.
	ranking atomic.Pointer[rankState]

	// Query-evaluation indexes (behavioural no-ops; they only speed up
	// the simulator): colIdx[a] lists tuple indices sorted by attribute
	// a's value, so narrow queries scan only one value range. The
	// ranking-order index lives in rankState so it drifts atomically.
	colIdx [][]int32

	// mu guards the mutable counters so one DB can serve concurrent
	// clients (the HTTP layer in internal/web does exactly that).
	mu         sync.Mutex
	queries    int
	queryLimit int
}

// New builds a hidden database from cfg. It validates the configuration and
// precomputes the ranking order.
func New(cfg Config) (*DB, error) {
	if len(cfg.Data) == 0 {
		return nil, fmt.Errorf("hidden: empty database")
	}
	m := len(cfg.Data[0])
	if m == 0 {
		return nil, fmt.Errorf("hidden: tuples need at least one attribute")
	}
	for i, t := range cfg.Data {
		if len(t) != m {
			return nil, fmt.Errorf("hidden: tuple %d has %d attributes, want %d", i, len(t), m)
		}
	}
	if len(cfg.Caps) != m {
		return nil, fmt.Errorf("hidden: %d capabilities for %d attributes", len(cfg.Caps), m)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("hidden: k must be >= 1, got %d", cfg.K)
	}
	if cfg.Filters != nil && len(cfg.Filters) != len(cfg.Data) {
		return nil, fmt.Errorf("hidden: %d filter rows for %d tuples", len(cfg.Filters), len(cfg.Data))
	}
	rank := cfg.Rank
	if rank == nil {
		rank = SumRank{}
	}
	db := &DB{
		data:       cfg.Data,
		filters:    cfg.Filters,
		caps:       append([]Capability(nil), cfg.Caps...),
		k:          cfg.K,
		queryLimit: cfg.QueryLimit,
	}
	if err := db.Rerank(rank); err != nil {
		return nil, err
	}
	db.domains = make([]query.Interval, m)
	for j := 0; j < m; j++ {
		lo, hi := cfg.Data[0][j], cfg.Data[0][j]
		for _, t := range cfg.Data {
			if t[j] < lo {
				lo = t[j]
			}
			if t[j] > hi {
				hi = t[j]
			}
		}
		db.domains[j] = query.Interval{Lo: lo, Hi: hi}
	}
	if cfg.Domains != nil {
		if len(cfg.Domains) != m {
			return nil, fmt.Errorf("hidden: %d domain overrides for %d attributes", len(cfg.Domains), m)
		}
		for j, adv := range cfg.Domains {
			obs := db.domains[j]
			if adv.Lo > obs.Lo || adv.Hi < obs.Hi {
				return nil, fmt.Errorf("hidden: advertised domain %v of A%d does not contain the data range %v", adv, j, obs)
			}
			db.domains[j] = adv
		}
	}
	db.buildIndexes()
	return db, nil
}

// Rerank swaps the database's ranking function mid-flight — the paper's
// "proprietary ranking may change under the crawler" scenario, injected
// by the chaos layer as a recoverable fault. r must be
// domination-consistent like any Ranking (nil means SumRank); discovery
// stays exact because skyline membership never depends on the ranking,
// only query counts drift. Concurrent queries are safe: each loads one
// complete rank state.
func (db *DB) Rerank(r Ranking) error {
	if r == nil {
		r = SumRank{}
	}
	order, err := r.Order(db.data)
	if err != nil {
		return err
	}
	if len(order) != len(db.data) {
		return fmt.Errorf("hidden: ranking returned %d positions for %d tuples", len(order), len(db.data))
	}
	pos := make([]int, len(order))
	seen := make([]bool, len(order))
	for p, i := range order {
		if i < 0 || i >= len(order) || seen[i] {
			return fmt.Errorf("hidden: ranking order is not a permutation")
		}
		seen[i] = true
		pos[i] = p
	}
	byRank := make([]int32, len(order))
	for p, i := range order {
		byRank[p] = int32(i)
	}
	db.ranking.Store(&rankState{pos: pos, byRank: byRank})
	return nil
}

func (db *DB) buildIndexes() {
	n, m := len(db.data), len(db.caps)
	db.colIdx = make([][]int32, m)
	for a := 0; a < m; a++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(x, y int) bool {
			return db.data[idx[x]][a] < db.data[idx[y]][a]
		})
		db.colIdx[a] = idx
	}
}

// MustNew is New that panics on error; convenient in tests and examples.
func MustNew(cfg Config) *DB {
	db, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// NumAttrs returns the number of ranking attributes m.
func (db *DB) NumAttrs() int { return len(db.caps) }

// Size returns the number of tuples n. A real hidden database would not
// reveal this; it is exposed for experiment bookkeeping only.
func (db *DB) Size() int { return len(db.data) }

// K returns the top-k output limit of the interface.
func (db *DB) K() int { return db.k }

// Cap returns the capability of attribute i.
func (db *DB) Cap(i int) Capability { return db.caps[i] }

// Caps returns a copy of all attribute capabilities.
func (db *DB) Caps() []Capability { return append([]Capability(nil), db.caps...) }

// Domain returns the observed domain of attribute i. Web interfaces
// advertise selectable value ranges in their search forms, so exposing this
// is faithful to practice.
func (db *DB) Domain(i int) query.Interval { return db.domains[i] }

// Domains returns a copy of all attribute domains.
func (db *DB) Domains() []query.Interval {
	return append([]query.Interval(nil), db.domains...)
}

// QueriesIssued returns the number of queries the database executed so
// far. Queries it rejected (malformed, unsupported predicate, over the
// rate limit) are not counted.
func (db *DB) QueriesIssued() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.queries
}

// ResetCounter zeroes the query counter (between experiment runs).
func (db *DB) ResetCounter() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.queries = 0
}

// SetQueryLimit installs a per-client budget; 0 disables the limit.
func (db *DB) SetQueryLimit(limit int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.queryLimit = limit
}

// Query executes a conjunctive top-k query against the interface. It
// enforces per-attribute capabilities and the rate limit, then returns the
// k best-ranked matching tuples.
func (db *DB) Query(q query.Q) (Result, error) {
	res, _, err := db.queryInternal(q)
	return res, err
}

// QueryFull is Query but also returns the filtering-attribute rows aligned
// with the returned tuples (nil when the database has no filter columns).
func (db *DB) QueryFull(q query.Q) (Result, [][]string, error) {
	return db.queryInternal(q)
}

func (db *DB) queryInternal(q query.Q) (Result, [][]string, error) {
	for _, p := range q {
		if p.Attr < 0 || p.Attr >= len(db.caps) {
			return Result{}, nil, fmt.Errorf("%w: attribute A%d out of range", ErrBadQuery, p.Attr)
		}
		if !p.Op.Valid() {
			return Result{}, nil, fmt.Errorf("%w: bad operator", ErrBadQuery)
		}
		if !db.caps[p.Attr].Allows(p.Op) {
			return Result{}, nil, fmt.Errorf("%w: A%d is %s, operator %s",
				ErrUnsupportedPredicate, p.Attr, db.caps[p.Attr], p.Op)
		}
	}
	db.mu.Lock()
	if db.queryLimit > 0 && db.queries >= db.queryLimit {
		db.mu.Unlock()
		return Result{}, nil, ErrQuotaExhausted
	}
	db.queries++
	db.mu.Unlock()

	matched, overflow := db.evaluate(q)
	out := Result{Overflow: overflow}
	if len(matched) == 0 {
		return out, nil, nil
	}
	// The rows share one flat backing array, each capped so a caller's
	// append cannot run into the next row.
	m := len(db.caps)
	flat := make([]int, len(matched)*m)
	out.Tuples = make([][]int, len(matched))
	var filters [][]string
	if db.filters != nil {
		filters = make([][]string, len(matched))
	}
	for j, i := range matched {
		row := flat[j*m : (j+1)*m : (j+1)*m]
		copy(row, db.data[i])
		out.Tuples[j] = row
		if filters != nil {
			filters[j] = db.filters[i]
		}
	}
	return out, filters, nil
}

// evaluate returns the indices of the top-k matching tuples (rank order)
// and whether the match set overflowed k. Two plans, identical semantics:
// a narrow query scans only its most selective attribute's value range; a
// broad query scans tuples best-rank-first and stops at the k+1-st match.
func (db *DB) evaluate(q query.Q) ([]int32, bool) {
	rs := db.ranking.Load()
	var ivArr [16]query.Interval // wider schemas allocate the box
	box := q.CanonicalizeInto(ivArr[:0], db.domains)
	if box.Empty() {
		return nil, false
	}
	n := len(db.data)
	bestAttr, bestLo, bestHi := -1, 0, n
	for a, iv := range box.Dims {
		dom := db.domains[a]
		if iv.Lo <= dom.Lo && iv.Hi >= dom.Hi {
			continue // unconstrained attribute
		}
		col := db.colIdx[a]
		lo := sort.Search(n, func(i int) bool { return db.data[col[i]][a] >= iv.Lo })
		hi := sort.Search(n, func(i int) bool { return db.data[col[i]][a] > iv.Hi })
		if hi-lo < bestHi-bestLo {
			bestAttr, bestLo, bestHi = a, lo, hi
		}
	}
	if bestAttr >= 0 && bestHi-bestLo <= n/4 {
		var matched []int32
		for _, i := range db.colIdx[bestAttr][bestLo:bestHi] {
			if box.Contains(db.data[i]) {
				matched = append(matched, i)
			}
		}
		overflow := len(matched) > db.k
		slices.SortFunc(matched, func(a, b int32) int { return cmp.Compare(rs.pos[a], rs.pos[b]) })
		if overflow {
			matched = matched[:db.k]
		}
		return matched, overflow
	}
	matched := make([]int32, 0, db.k+1)
	for _, i := range rs.byRank {
		if box.Contains(db.data[i]) {
			matched = append(matched, i)
			if len(matched) > db.k {
				return matched[:db.k], true
			}
		}
	}
	return matched, false
}

// GroundTruth exposes a copy of the raw data for offline verification in
// experiments and tests. Discovery algorithms must not call it.
func (db *DB) GroundTruth() [][]int {
	out := make([][]int, len(db.data))
	for i, t := range db.data {
		out[i] = append([]int(nil), t...)
	}
	return out
}
