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
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
// answer, with no sort. Each column keeps cumulative rank bitmaps over
// its value bins, so the rows of a value range are found 64 at a time in
// rank order. Per attribute that costs at most (maxBins-1)·⌈n/64⌉ words
// (31n/8 bytes), at most maxBins starts and a lookup table of at most n
// bytes, next to the 8n bytes of its values; two more bitmaps serve the
// whole state. A state is immutable once published: Rerank builds a
// complete replacement and swaps it in atomically, and in-flight queries
// keep the one they loaded.
type rankState struct {
	m     int
	words int     // ⌈n/64⌉, the length of one bitmap
	rows  []int   // n*m values, row-major in rank order
	id    []int32 // id[r] is row r's index in Config.Data
	cols  []column
	// bits holds every bitmap back to back, so a query names one by its
	// first word: noRow's and everyRow's, then each column's.
	bits []uint64
}

// The bitmaps that open rankState.bits: a bound with no cut below ANDs
// out noRow's, and one with no cut above ANDs in everyRow's.
const (
	noRow    = 0
	everyRow = 1
)

// maxBins bounds the value bins of one column.
const maxBins = 32

// column indexes one attribute of a rankState. Its observed range
// [lo, hi] is cut into at most maxBins bins of consecutive values: one
// value per bin when the range holds at most maxBins values, otherwise
// quantile bins of at least n/maxBins rows each (but the last), cut only
// at values that occur, so a value many rows share leaves fewer bins.
// Bin b holds the values from start[b] up to start[b+1]-1; the last one
// runs to hi.
type column struct {
	lo, hi int
	start  []int
	// tab[v-lo] is value v's bin. It exists when the range holds at most
	// max(n, maxBins) values, which keeps it within n bytes (or maxBins);
	// wider ranges binary-search start.
	tab []uint8
	// The cumulative bitmaps, one per bin but the last, start at word
	// cum of rankState.bits: bit r of bin b's bitmap is set when row r's
	// value lies in a bin <= b. The last bin's would hold every row and
	// is not stored.
	cum int
}

func (rs *rankState) n() int { return len(rs.id) }

func (rs *rankState) row(r int32) []int {
	i := int(r) * rs.m
	return rs.rows[i : i+rs.m : i+rs.m]
}

// bin returns the bin of v, which must lie in [c.lo, c.hi].
func (c *column) bin(v int) int {
	if c.tab != nil {
		return int(c.tab[v-c.lo])
	}
	i, j := 1, len(c.start) // the answer is the last b with start[b] <= v
	for i < j {
		if h := int(uint(i+j) >> 1); c.start[h] <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i - 1
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
	// observed holds each attribute's data range, which no Rerank
	// changes; evaluate folds queries against it.
	observed []query.Interval

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
	db.observed = make([]query.Interval, m)
	for j, c := range db.ranking.Load().cols {
		db.observed[j] = query.Interval{Lo: c.lo, Hi: c.hi}
	}
	db.domains = slices.Clone(db.observed)
	if cfg.Domains != nil {
		if len(cfg.Domains) != m {
			return nil, fmt.Errorf("hidden: %d domain overrides for %d attributes", len(cfg.Domains), m)
		}
		for j, adv := range cfg.Domains {
			obs := db.observed[j]
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
	W := (n + 63) / 64
	rs := &rankState{m: m, words: W, rows: make([]int, n*m), id: make([]int32, n), cols: make([]column, m)}
	seen := make([]bool, n)
	for p, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("hidden: ranking order is not a permutation")
		}
		seen[i] = true
		rs.id[p] = int32(i)
		copy(rs.rows[p*m:(p+1)*m], data[i])
	}
	size := 2 * W
	for a := range rs.cols {
		c := rs.bins(a)
		c.cum, size = size, size+(len(c.start)-1)*W
		rs.cols[a] = c
	}
	rs.bits = make([]uint64, size)
	for r := 0; r < n; r++ {
		rs.bits[everyRow*W+r>>6] |= 1 << (r & 63)
	}
	for a := range rs.cols {
		rs.index(a)
	}
	db.ranking.Store(rs)
	return nil
}

// bins returns column a's observed range, bin starts and, when the range
// is narrow, lookup table. Quantile starts come from one histogram pass
// when the range is under 8n values, and from a sorted copy of the
// column otherwise.
func (rs *rankState) bins(a int) column {
	n, m := rs.n(), rs.m
	c := column{lo: rs.rows[a], hi: rs.rows[a]}
	for r := 0; r < n; r++ {
		v := rs.rows[r*m+a]
		c.lo, c.hi = min(c.lo, v), max(c.hi, v)
	}
	// w is the range's width less one; uint arithmetic keeps it exact
	// even for a column spanning MinInt..MaxInt.
	w := uint(c.hi) - uint(c.lo)
	// cut starts a new bin at value v, with below rows under it, once the
	// current bin holds n/maxBins rows. Every bin but the last holds that
	// many, so there are at most maxBins.
	first := 0 // the rows under the current bin
	cut := func(v, below int) {
		if len(c.start) == 0 || (below-first)*maxBins >= n {
			c.start, first = append(c.start, v), below
		}
	}
	switch {
	case w < maxBins:
		c.tab = make([]uint8, w+1)
		for i := range c.tab {
			c.start = append(c.start, c.lo+i)
			c.tab[i] = uint8(i)
		}
	case w < 8*uint(n):
		count := make([]int32, w+1)
		for r := 0; r < n; r++ {
			count[rs.rows[r*m+a]-c.lo]++
		}
		if w < uint(n) {
			c.tab = make([]uint8, w+1)
		}
		below := 0
		for i, k := range count {
			if k > 0 {
				cut(c.lo+i, below)
				below += int(k)
			}
			if c.tab != nil {
				c.tab[i] = uint8(len(c.start) - 1)
			}
		}
	default:
		vals := make([]int, n)
		for r := range vals {
			vals[r] = rs.rows[r*m+a]
		}
		slices.Sort(vals)
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				cut(v, i)
			}
		}
	}
	return c
}

// index fills column a's cumulative bitmaps, whose place in rs.bits its
// bins already fixed.
func (rs *rankState) index(a int) {
	n, m, W, c := rs.n(), rs.m, rs.words, &rs.cols[a]
	last := len(c.start) - 1
	cum := rs.bits[c.cum : c.cum+last*W]
	for r := 0; r < n; r++ {
		if b := c.bin(rs.rows[r*m+a]); b < last {
			cum[b*W+r>>6] |= 1 << (r & 63)
		}
	}
	for i := W; i < len(cum); i++ {
		cum[i] |= cum[i-W]
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
	res, _, err := db.queryInternal(q, false)
	return res, err
}

// QueryFull is Query but also returns the filtering-attribute rows aligned
// with the returned tuples (nil when the database has no filter columns).
func (db *DB) QueryFull(q query.Q) (Result, [][]string, error) {
	return db.queryInternal(q, true)
}

// queryInternal answers q, and with withFilters also gathers the
// returned rows' filter values.
func (db *DB) queryInternal(q query.Q, withFilters bool) (Result, [][]string, error) {
	if err := q.Validate(len(db.caps)); err != nil {
		return Result{}, nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	for _, p := range q {
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
	if withFilters && db.filters != nil {
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

// cut is one narrowed attribute of a query, as the first words of the
// bitmap its rows are ANDed with and of the one they are masked by.
type cut struct{ in, out int }

// evaluate appends to dst the row ids (ranks) of the top-k matching
// tuples, best first, and reports whether the match set overflowed k.
// The predicates fold into one [lo, hi] per attribute, clamped to the
// observed range, and attributes left at their whole range drop out.
// Each remaining one ANDs in the bitmap of hi's bin and masks out the
// bitmap of the bin below lo's; when lo or hi falls inside its bin, the
// rows that pass also get an exact value check on that attribute. The
// walk takes 64 rows at a time in rank order and stops at the k+1-st
// match: at most ⌈n/64⌉ word operations per narrowed attribute, whatever
// the selectivity.
func (db *DB) evaluate(rs *rankState, q query.Q, dst []int32) ([]int32, bool) {
	var ivArr [16]query.Interval // wider schemas allocate the box
	box := q.CanonicalizeInto(ivArr[:0], db.observed)
	var bArr [16]bound
	var cutArr [16]cut
	checks, cuts := bArr[:0], cutArr[:0]
	W := rs.words
	for a, iv := range box.Dims {
		if iv.Lo > iv.Hi {
			return dst, false // no row has a value in range
		}
		c := &rs.cols[a]
		if iv.Lo == c.lo && iv.Hi == c.hi {
			continue // unconstrained attribute
		}
		last := len(c.start) - 1
		bl, bh := c.bin(iv.Lo), c.bin(iv.Hi)
		k, end := cut{in: everyRow * W, out: noRow * W}, c.hi // end: the last value of hi's bin
		if bh < last {
			k.in, end = c.cum+bh*W, c.start[bh+1]-1
		}
		if bl > 0 {
			k.out = c.cum + (bl-1)*W
		}
		cuts = append(cuts, k)
		if c.start[bl] != iv.Lo || end != iv.Hi {
			checks = append(checks, bound{a, iv.Lo, iv.Hi})
		}
	}
	words := rs.bits
	for w := 0; w < W; w++ {
		x := words[everyRow*W+w]
		for _, k := range cuts {
			x &= words[k.in+w] &^ words[k.out+w]
		}
		for ; x != 0; x &= x - 1 {
			r := int32(w<<6 + bits.TrailingZeros64(x))
			if len(checks) > 0 && !matches(rs.row(r), checks) {
				continue
			}
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
