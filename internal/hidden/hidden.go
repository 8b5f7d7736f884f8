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

// rankState is the database under one ranking, stored for the top-k
// access pattern. Row r of rows is the r-th best-ranked tuple, so a row
// id is its rank: the first k+1 matches of any rank-ordered scan are the
// answer, with no sort. Each column's postings list the row ids by
// (value, rank), so one attribute's value range is one contiguous run of
// postings and a single-value run is already in rank order. A state is
// immutable once published: Rerank builds a complete replacement and
// swaps it in atomically, and in-flight queries keep the one they loaded.
type rankState struct {
	m    int
	rows []int   // n*m values, row-major in rank order
	id   []int32 // id[r] is row r's index in Config.Data
	cols []column
}

// column indexes one attribute of a rankState.
type column struct {
	lo, hi int     // observed value range
	post   []int32 // row ids sorted by (value, rank)
	// off[v-lo] is the first posting with value >= v (off[hi-lo+1] = n),
	// so a value range's postings are found with two loads. It exists
	// only when hi-lo < n, which keeps it no larger than post; wider
	// ranges binary-search post.
	off []int32
}

func (rs *rankState) n() int { return len(rs.id) }

func (rs *rankState) row(r int32) []int {
	i := int(r) * rs.m
	return rs.rows[i : i+rs.m : i+rs.m]
}

// span returns the postings run [i, j) of column a's values in [lo, hi],
// which must lie inside the column's observed range.
func (rs *rankState) span(a, lo, hi int) (int, int) {
	c := &rs.cols[a]
	if c.off != nil {
		return int(c.off[lo-c.lo]), int(c.off[hi-c.lo+1])
	}
	val := func(p int) int { return rs.rows[int(c.post[p])*rs.m+a] }
	i := sort.Search(len(c.post), func(p int) bool { return val(p) >= lo })
	j := i + sort.Search(len(c.post)-i, func(p int) bool { return val(i+p) > hi })
	return i, j
}

// views returns row views in Config.Data order, aliasing the state.
func (rs *rankState) views() [][]int {
	out := make([][]int, rs.n())
	for r, i := range rs.id {
		out[i] = rs.row(int32(r))
	}
	return out
}

// DB is the hidden database simulator.
type DB struct {
	filters [][]string
	caps    []Capability
	k       int
	domains []query.Interval // advertised

	// ranking is the current rankState; queries load it once and never
	// see a torn mix of two rankings, which is what lets Rerank drift the
	// proprietary ranking mid-crawl without a lock on the query path.
	ranking atomic.Pointer[rankState]

	// mu guards the mutable counters so one DB can serve concurrent
	// clients (the HTTP layer in internal/web does exactly that).
	mu         sync.Mutex
	queries    int
	queryLimit int
}

// New builds a hidden database from cfg. It validates the configuration,
// copies cfg.Data into its rank-ordered store (keeping no reference to
// it) and indexes every attribute.
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
	db := &DB{
		filters:    cfg.Filters,
		caps:       append([]Capability(nil), cfg.Caps...),
		k:          cfg.K,
		queryLimit: cfg.QueryLimit,
	}
	if err := db.rerank(cfg.Data, cfg.Rank); err != nil {
		return nil, err
	}
	db.domains = make([]query.Interval, m)
	for j, c := range db.ranking.Load().cols {
		db.domains[j] = query.Interval{Lo: c.lo, Hi: c.hi}
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
	return db, nil
}

// Rerank swaps the database's ranking function mid-flight — the paper's
// "proprietary ranking may change under the crawler" scenario, injected
// by the chaos layer as a recoverable fault. r must be
// domination-consistent like any Ranking (nil means SumRank); discovery
// stays exact because skyline membership never depends on the ranking,
// only query counts drift. r.Order sees the rows in Config.Data order,
// read from the current state, so its index tie-breaks match New's. The
// new rank-ordered store is built aside and published atomically:
// concurrent queries each load one complete state, and a failing r
// leaves the old one installed.
func (db *DB) Rerank(r Ranking) error {
	return db.rerank(db.ranking.Load().views(), r)
}

// rerank orders data (in Config.Data order) by r and publishes the
// resulting rankState.
func (db *DB) rerank(data [][]int, r Ranking) error {
	if r == nil {
		r = SumRank{}
	}
	order, err := r.Order(data)
	if err != nil {
		return err
	}
	n, m := len(data), len(db.caps)
	if len(order) != n {
		return fmt.Errorf("hidden: ranking returned %d positions for %d tuples", len(order), n)
	}
	rs := &rankState{m: m, rows: make([]int, n*m), id: make([]int32, n), cols: make([]column, m)}
	seen := make([]bool, n)
	for p, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("hidden: ranking order is not a permutation")
		}
		seen[i] = true
		rs.id[p] = int32(i)
		copy(rs.rows[p*m:(p+1)*m], data[i])
	}
	for a := range rs.cols {
		rs.cols[a] = rs.index(a)
	}
	db.ranking.Store(rs)
	return nil
}

// index builds column a's postings: a counting sort by value when the
// value range fits the offset table (rows are visited in rank order, so
// each value's run comes out rank-ordered), a comparison sort otherwise.
func (rs *rankState) index(a int) column {
	n := rs.n()
	c := column{lo: rs.rows[a], hi: rs.rows[a], post: make([]int32, n)}
	for r := 0; r < n; r++ {
		v := rs.rows[r*rs.m+a]
		c.lo, c.hi = min(c.lo, v), max(c.hi, v)
	}
	if w := c.hi - c.lo; w >= 0 && w < n {
		c.off = make([]int32, w+2)
		for r := 0; r < n; r++ {
			c.off[rs.rows[r*rs.m+a]-c.lo+1]++
		}
		for v := 1; v < len(c.off); v++ {
			c.off[v] += c.off[v-1]
		}
		next := append([]int32(nil), c.off[:w+1]...)
		for r := 0; r < n; r++ {
			v := rs.rows[r*rs.m+a] - c.lo
			c.post[next[v]] = int32(r)
			next[v]++
		}
		return c
	}
	for r := range c.post {
		c.post[r] = int32(r)
	}
	slices.SortFunc(c.post, func(x, y int32) int {
		return cmp.Or(cmp.Compare(rs.rows[int(x)*rs.m+a], rs.rows[int(y)*rs.m+a]), cmp.Compare(x, y))
	})
	return c
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

// Size returns the number of tuples n, the row count of the rank-ordered
// store (duplicates included). A real hidden database would not reveal
// this; it is exposed for experiment bookkeeping only.
func (db *DB) Size() int { return db.ranking.Load().n() }

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

	rs := db.ranking.Load()
	var idArr [64]int32 // evaluate appends here; past 64 ids it allocates
	matched, overflow := db.evaluate(rs, q, idArr[:0])
	out := Result{Overflow: overflow}
	if len(matched) == 0 {
		return out, nil, nil
	}
	// The rows share one flat backing array, each capped so a caller's
	// append cannot run into the next row.
	m := rs.m
	flat := make([]int, len(matched)*m)
	out.Tuples = make([][]int, len(matched))
	var filters [][]string
	if db.filters != nil {
		filters = make([][]string, len(matched))
	}
	for j, r := range matched {
		row := flat[j*m : (j+1)*m : (j+1)*m]
		copy(row, rs.row(r))
		out.Tuples[j] = row
		if filters != nil {
			filters[j] = db.filters[rs.id[r]]
		}
	}
	return out, filters, nil
}

// bound is one constrained attribute of a query: a matching row's value
// on attribute a lies in [lo, hi].
type bound struct{ a, lo, hi int }

func matches(row []int, bs []bound) bool {
	for _, b := range bs {
		if v := row[b.a]; v < b.lo || v > b.hi {
			return false
		}
	}
	return true
}

// evaluate appends to dst the row ids (ranks) of the top-k matching
// tuples, best first, and reports whether the match set overflowed k.
// Only attributes the query narrows below the data's own range are
// checked, and never the one whose postings are scanned. Three plans,
// identical answers:
//   - when the most selective attribute pins one value, its postings are
//     in rank order, a subsequence of the row walk below: walk them and
//     stop at the k+1-st match;
//   - when that attribute's run is no longer than the rows the row walk
//     would visit, estimated as k+1 over the match fraction with the
//     attributes taken as independent, collect the run's matches and
//     sort their rank ids;
//   - otherwise walk the rows best-rank-first and stop at the k+1-st
//     match.
func (db *DB) evaluate(rs *rankState, q query.Q, dst []int32) ([]int32, bool) {
	var ivArr [16]query.Interval // wider schemas allocate the box
	box := q.CanonicalizeInto(ivArr[:0], db.domains)
	var bArr [16]bound
	bs := bArr[:0]
	n := rs.n()
	scan, scanLo, scanHi := -1, 0, n
	sel := 1.0 // the match fraction, were the attributes independent
	for a, iv := range box.Dims {
		c := &rs.cols[a]
		lo, hi := max(iv.Lo, c.lo), min(iv.Hi, c.hi)
		if lo > hi {
			return dst, false // no row has a value in range
		}
		if lo == c.lo && hi == c.hi {
			continue // unconstrained attribute
		}
		i, j := rs.span(a, lo, hi)
		if j-i < scanHi-scanLo {
			scan, scanLo, scanHi = len(bs), i, j
		}
		sel *= float64(j-i) / float64(n)
		bs = append(bs, bound{a, lo, hi})
	}
	if scan >= 0 {
		a := bs[scan].a
		post := rs.cols[a].post[scanLo:scanHi]
		if len(post) == 0 {
			return dst, false
		}
		single := rs.row(post[0])[a] == rs.row(post[len(post)-1])[a]
		if single || float64(len(post))*sel <= float64(db.k+1) {
			// The scanned postings satisfy their own bound.
			rest := len(bs) - 1
			bs[scan] = bs[rest]
			bs = bs[:rest]
			for _, r := range post {
				if matches(rs.row(r), bs) {
					if dst = append(dst, r); single && len(dst) > db.k {
						return dst[:db.k], true
					}
				}
			}
			if !single {
				slices.Sort(dst)
			}
			if len(dst) > db.k {
				return dst[:db.k], true
			}
			return dst, false
		}
	}
	for r := range int32(n) {
		if matches(rs.row(r), bs) {
			if dst = append(dst, r); len(dst) > db.k {
				return dst[:db.k], true
			}
		}
	}
	return dst, false
}

// GroundTruth returns a copy of the tuples in Config.Data order, rebuilt
// from the rank-ordered store, for offline verification in experiments
// and tests. Discovery algorithms must not call it.
func (db *DB) GroundTruth() [][]int {
	rs := db.ranking.Load()
	out := make([][]int, rs.n())
	for r, i := range rs.id {
		out[i] = append([]int(nil), rs.row(int32(r))...)
	}
	return out
}
