// Package answer is the read side of the repository: a materialized,
// immutable answer store built from a discovered skyline or K-skyband.
//
// The write side (discovery, packages core and service) spends upstream
// queries to extract the band from a hidden web database; this package
// spends none. Build precomputes everything a serving layer needs to
// answer user rankings at memory speed:
//
//   - layered skyline levels (level 0 = the skyline of the stored
//     tuples, level i = the skyline of what remains after peeling
//     levels < i), flattened into one contiguous arena with prefix
//     offsets, so the candidate set of an unfiltered top-k request is
//     a zero-copy sub-slice of the arena — no per-request copying,
//   - per-attribute sorted projections, so range-constrained requests
//     scan the most selective attribute's slice instead of the store,
//   - column-major attribute columns (raw values widened to float64
//     and unit-normalized), so scoring is a fused per-column sweep
//     over contiguous memory instead of a row-pointer chase.
//
// One kernel answers every top-k request (see batch.go): TopK and
// TopKAppend are single-query calls into the fused sweep behind
// TopKBatch. Its hot path is allocation-free at steady state: all
// working buffers (candidate lists, score rows, selection windows)
// live in one pooled scratch block, winner scores are threaded from
// selection to the answer instead of being recomputed, and TopKAppend
// lets a caller reuse its result slice across requests. Only candidate
// sets past a calibrated threshold fan out across goroutines, in
// contiguous shard-wide ranges merged deterministically.
//
// A Store is immutable after Build; every method is safe for unbounded
// concurrent use. Handle adds the lock-free hot-swap used by skylined:
// readers atomically load the current store while a completed discovery
// job swaps in a fresh one.
//
// Exactness: the top-k of any monotone scoring function over the full
// hidden database lies inside its K-skyband (Gong et al., the identity
// skyline.TopKMonotone is built on). A store materialized from a
// complete K-skyband therefore answers unfiltered top-k requests with
// k <= BandK exactly as a brute-force scan of the original data would;
// larger k and range-filtered requests are answered best-effort over
// the materialized tuples and reported with Exact=false.
//
// The contract lives at value level — the paper's general positioning
// of distinct value combinations, which band discovery itself assumes
// (see core.BandResult): tuples with identical ranking-attribute
// values are indistinguishable through a top-k value interface, so
// Build deduplicates and a value combination appears at most once in
// an answer. A database with duplicate rows has its duplicates
// collapsed on both the discovery and the answer side.
package answer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"hiddensky/internal/obs"
	"hiddensky/internal/skyline"
)

// Errors returned by Build and the query methods.
var (
	// ErrEmpty: Build was handed no tuples.
	ErrEmpty = errors.New("answer: no tuples to materialize")
	// ErrBadQuery: the request is malformed (weight length, negative
	// weights, attribute out of range, ...).
	ErrBadQuery = errors.New("answer: bad query")
)

// Options tunes Build.
type Options struct {
	// BandK is the skyband level of the source tuples: the store was
	// built from (at least) the K-skyband of the original data. It is
	// the largest k for which unfiltered top-k answers are exact.
	// <= 0 means 1 (a plain skyline).
	BandK int
}

// Store is the immutable materialized answer index.
type Store struct {
	tuples [][]int // deduplicated row views into one contiguous arena
	flat   []int   // the row arena backing tuples; never mutated
	m      int
	bandK  int
	shard  int // fan-out range width (shardSize; tests narrow it)

	level []int // level[i] = skyline layer of tuples[i]
	// The layered levels, flattened: levelArena[levelOff[l]:levelOff[l+1]]
	// holds the tuple indices of layer l. An unfiltered top-k request's
	// candidate set is the zero-copy prefix levelArena[:levelOff[min(k,L)]].
	levelArena []int
	levelOff   []int
	proj       [][]int // proj[a] = indices sorted ascending by attribute a
	lo, hi     []int   // per-attribute value range over the stored tuples
	// Column-major scoring columns: cols[a][i] = float64(tuples[i][a]),
	// norm[a][i] the unit-scaled value. Scoring sweeps these columns
	// sequentially instead of chasing row pointers.
	cols [][]float64
	norm [][]float64

	metrics *Metrics // nil: uninstrumented (see SetMetrics)
}

// Metrics instruments a Store's read path. All fields are optional.
// Recording is two monotonic-clock reads and three atomic adds per
// request — the instrumented hot path stays allocation-free (enforced
// by TestInstrumentedTopKZeroAlloc).
type Metrics struct {
	// TopKSeconds observes TopK/TopKAppend latency.
	TopKSeconds *obs.Histogram
	// SkylineSeconds observes SubspaceSkyline latency.
	SkylineSeconds *obs.Histogram
	// DominatesSeconds observes Dominates latency.
	DominatesSeconds *obs.Histogram
	// BatchSeconds observes whole-batch TopKBatch latency (one
	// observation per batch, not per vector).
	BatchSeconds *obs.Histogram
	// BatchSize observes the vector count of each batch, recorded as a
	// dimensionless duration (1ns == 1 vector) so the power-of-two
	// histogram's quantiles read directly as batch sizes.
	BatchSize *obs.Histogram
}

// SetMetrics attaches metrics to the store. Call it right after Build,
// before the store is shared; the bundle may be shared by many stores
// (a daemon aggregates every published index into one set of series).
func (s *Store) SetMetrics(m *Metrics) { s.metrics = m }

// Info summarizes a store for health/listing endpoints.
type Info struct {
	Tuples int `json:"tuples"`
	Attrs  int `json:"attrs"`
	BandK  int `json:"band_k"`
	Levels int `json:"levels"`
}

// Build materializes the answer index. Tuples must be non-empty and of
// uniform width; duplicates are dropped. Build is O(L·n²) dominance
// work in the worst case (L layers of skyline peeling) — it runs once
// per discovery, off the read path.
func Build(tuples [][]int, opt Options) (*Store, error) {
	if len(tuples) == 0 {
		return nil, ErrEmpty
	}
	m := len(tuples[0])
	if m == 0 {
		return nil, fmt.Errorf("%w: zero-width tuples", ErrBadQuery)
	}
	seen := map[string]bool{}
	data := make([][]int, 0, len(tuples))
	for _, t := range tuples {
		if len(t) != m {
			return nil, fmt.Errorf("%w: ragged tuple widths (%d vs %d)", ErrBadQuery, len(t), m)
		}
		key := fmt.Sprint(t)
		if seen[key] {
			continue
		}
		seen[key] = true
		data = append(data, t)
	}
	// Copy the deduplicated rows into one contiguous arena; tuples
	// become capped views so no caller append can cross rows.
	flat := make([]int, len(data)*m)
	rows := make([][]int, len(data))
	for i, t := range data {
		row := flat[i*m : (i+1)*m : (i+1)*m]
		copy(row, t)
		rows[i] = row
	}
	s := &Store{tuples: rows, flat: flat, m: m, bandK: max(opt.BandK, 1), shard: shardSize}
	s.buildLevels()
	s.buildProjections()
	s.buildColumns()
	return s, nil
}

// buildLevels peels the stored tuples into skyline layers and flattens
// them into the level arena.
func (s *Store) buildLevels() {
	s.level = make([]int, len(s.tuples))
	remaining := make([]int, len(s.tuples))
	for i := range remaining {
		remaining[i] = i
	}
	s.levelArena = make([]int, 0, len(s.tuples))
	s.levelOff = []int{0}
	for l := 0; len(remaining) > 0; l++ {
		sub := make([][]int, len(remaining))
		for i, j := range remaining {
			sub[i] = s.tuples[j]
		}
		var layer []int
		next := remaining[:0]
		for _, li := range skyline.Compute(sub) {
			layer = append(layer, remaining[li])
		}
		onLayer := map[int]bool{}
		for _, j := range layer {
			onLayer[j] = true
			s.level[j] = l
		}
		for _, j := range remaining {
			if !onLayer[j] {
				next = append(next, j)
			}
		}
		s.levelArena = append(s.levelArena, layer...)
		s.levelOff = append(s.levelOff, len(s.levelArena))
		remaining = next
	}
}

func (s *Store) buildProjections() {
	s.proj = make([][]int, s.m)
	s.lo = make([]int, s.m)
	s.hi = make([]int, s.m)
	for a := 0; a < s.m; a++ {
		idx := make([]int, len(s.tuples))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool {
			vx, vy := s.tuples[idx[x]][a], s.tuples[idx[y]][a]
			if vx != vy {
				return vx < vy
			}
			return idx[x] < idx[y]
		})
		s.proj[a] = idx
		s.lo[a] = s.tuples[idx[0]][a]
		s.hi[a] = s.tuples[idx[len(idx)-1]][a]
	}
}

func (s *Store) buildColumns() {
	s.cols = make([][]float64, s.m)
	s.norm = make([][]float64, s.m)
	for a := 0; a < s.m; a++ {
		raw := make([]float64, len(s.tuples))
		col := make([]float64, len(s.tuples))
		span := float64(s.hi[a] - s.lo[a])
		for i, t := range s.tuples {
			raw[i] = float64(t[a])
			if span > 0 {
				col[i] = float64(t[a]-s.lo[a]) / span
			}
		}
		s.cols[a] = raw
		s.norm[a] = col
	}
}

// numLevels returns the number of skyline layers.
func (s *Store) numLevels() int { return len(s.levelOff) - 1 }

// levelSlice returns the tuple indices of layer l (a view, not a copy).
func (s *Store) levelSlice(l int) []int {
	return s.levelArena[s.levelOff[l]:s.levelOff[l+1]]
}

// Len returns the number of materialized tuples.
func (s *Store) Len() int { return len(s.tuples) }

// NumAttrs returns the tuple width.
func (s *Store) NumAttrs() int { return s.m }

// BandK returns the skyband level the store was built from.
func (s *Store) BandK() int { return s.bandK }

// Stats returns the store summary.
func (s *Store) Stats() Info {
	return Info{Tuples: len(s.tuples), Attrs: s.m, BandK: s.bandK, Levels: s.numLevels()}
}

// Skyline returns the store's level-0 tuples (the skyline of the
// materialized set, which for a complete discovery is the skyline of
// the original database).
func (s *Store) Skyline() [][]int {
	l0 := s.levelSlice(0)
	out := make([][]int, len(l0))
	for i, j := range l0 {
		out[i] = s.tuples[j]
	}
	return out
}

// Range is one closed per-attribute constraint of a filtered request.
// Lo/Hi bounds beyond the stored value range are equivalent to
// math.MinInt / math.MaxInt (unbounded on that side).
type Range struct {
	Attr int
	Lo   int
	Hi   int
}

// Unbounded builds a Range matching every value of the attribute.
func Unbounded(attr int) Range { return Range{Attr: attr, Lo: math.MinInt, Hi: math.MaxInt} }

// TopKQuery is one top-k request.
type TopKQuery struct {
	// Weights is the client's linear ranking: score(t) = Σ w[a]·t[a],
	// lower is better. Weights must be non-negative (the monotonicity
	// the skyband identity needs) and at least one must be positive.
	Weights []float64
	// K is how many tuples to return.
	K int
	// Normalized scores unit-scaled columns instead of raw values:
	// score(t) = Σ w[a]·(t[a]-lo[a])/(hi[a]-lo[a]). Normalization is a
	// per-attribute increasing map, so monotonicity (and the band
	// identity) is preserved.
	Normalized bool
	// Filter restricts the request to tuples inside every Range.
	// Filtered answers are best-effort over the materialized band (a
	// constraint can exclude a tuple's dominators from the band while
	// the true filtered top-k lies outside it) and are never marked
	// Exact.
	Filter []Range
}

// Ranked is one answered tuple.
type Ranked struct {
	Tuple []int   `json:"tuple"`
	Score float64 `json:"score"`
	// Level is the tuple's skyline layer in the store (0 = skyline).
	Level int `json:"level"`
}

// TopKResult is a top-k answer.
type TopKResult struct {
	Items []Ranked
	// Exact reports that the answer provably equals brute-force top-k
	// over the original database (at value level: duplicate rows are
	// collapsed, see the package comment): the request was unfiltered
	// and asked for at most BandK tuples of a band-complete store.
	Exact bool
}

// TopK answers a top-k request. Ties are broken by tuple values
// (lexicographically) for determinism regardless of sharding.
func (s *Store) TopK(q TopKQuery) (TopKResult, error) {
	return s.TopKAppend(q, nil)
}

// TopKAppend is TopK appending the answer onto dst (which may be a
// retained buffer from a previous request; its length is reset first).
// It is a one-query call into the batch kernel, so with cap(dst) >= k
// it performs no allocation: unfiltered candidates are a zero-copy
// arena slice, scoring and selection run in pooled scratch, and the
// returned Ranked tuples alias the store's immutable rows. The timing
// wrapper is an explicit call, not a deferred closure, so
// instrumentation keeps the path at 0 allocs/op.
func (s *Store) TopKAppend(q TopKQuery, dst []Ranked) (TopKResult, error) {
	m := s.metrics
	if m == nil || m.TopKSeconds == nil {
		return s.topKAppend(q, dst)
	}
	t0 := time.Now()
	res, err := s.topKAppend(q, dst)
	m.TopKSeconds.Observe(time.Since(t0))
	return res, err
}

func (s *Store) topKAppend(q TopKQuery, dst []Ranked) (TopKResult, error) {
	if err := s.checkQuery(&q); err != nil {
		return TopKResult{}, err
	}
	bs := batchScratchPool.Get().(*batchScratch)
	bs.one[0], bs.oneOut[0] = q, TopKResult{Items: dst[:0]}
	s.answer(bs, bs.one[:], bs.oneOut[:])
	res := bs.oneOut[0]
	// Drop the caller's buffers before the scratch goes back to the pool.
	bs.one[0], bs.oneOut[0] = TopKQuery{}, TopKResult{}
	batchScratchPool.Put(bs)
	return res, nil
}

// checkQuery validates a full request: weights, k, and filter ranges.
// Shared by the kernel and the retained reference so the two can
// never diverge on what they reject.
func (s *Store) checkQuery(q *TopKQuery) error {
	if err := s.checkWeights(q.Weights); err != nil {
		return err
	}
	if q.K <= 0 {
		return fmt.Errorf("%w: k must be >= 1, got %d", ErrBadQuery, q.K)
	}
	// Finite weights can still overflow a score: bound |score| over the
	// stored value ranges (unit columns when normalized).
	bound := 0.0
	for a, w := range q.Weights {
		b := 1.0
		if !q.Normalized {
			b = max(math.Abs(float64(s.lo[a])), math.Abs(float64(s.hi[a])))
		}
		bound += w * b
	}
	if math.IsInf(bound, 0) {
		return fmt.Errorf("%w: weights %v overflow the score range", ErrBadQuery, q.Weights)
	}
	for _, r := range q.Filter {
		if r.Attr < 0 || r.Attr >= s.m {
			return fmt.Errorf("%w: filter attribute %d out of range [0,%d)", ErrBadQuery, r.Attr, s.m)
		}
		if r.Lo > r.Hi {
			return fmt.Errorf("%w: filter on attribute %d has lo %d > hi %d", ErrBadQuery, r.Attr, r.Lo, r.Hi)
		}
	}
	return nil
}

func (s *Store) checkWeights(w []float64) error {
	if len(w) != s.m {
		return fmt.Errorf("%w: %d weights for %d attributes", ErrBadQuery, len(w), s.m)
	}
	positive := false
	for a, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: weight %v on attribute %d (want finite, >= 0)", ErrBadQuery, v, a)
		}
		if v > 0 {
			positive = true
		}
	}
	if !positive {
		return fmt.Errorf("%w: at least one weight must be positive", ErrBadQuery)
	}
	return nil
}

// filtered returns the candidate indices matching every range. It scans
// the most selective constrained attribute's sorted projection slice
// (found by binary search) and checks the remaining constraints there.
func (s *Store) filtered(filter []Range) []int {
	return s.filteredInto(nil, filter)
}

// filteredInto is filtered appending into a reusable buffer.
func (s *Store) filteredInto(out []int, filter []Range) []int {
	best, bestFrom, bestTo := -1, 0, len(s.tuples)
	for x, r := range filter {
		p := s.proj[r.Attr]
		from := sort.Search(len(p), func(i int) bool { return s.tuples[p[i]][r.Attr] >= r.Lo })
		to := sort.Search(len(p), func(i int) bool { return s.tuples[p[i]][r.Attr] > r.Hi })
		if best < 0 || to-from < bestTo-bestFrom {
			best, bestFrom, bestTo = x, from, to
		}
	}
	span := s.proj[filter[best].Attr][bestFrom:bestTo]
	if len(filter) == 1 {
		return append(out, span...)
	}
	for _, i := range span {
		row, ok := s.tuples[i], true
		for x, r := range filter {
			// The scanned slice already satisfies the chosen range.
			if v := row[r.Attr]; x != best && (v < r.Lo || v > r.Hi) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// SubspaceSkyline returns the tuples whose projection onto attrs is not
// strictly dominated by any other stored tuple's projection. attrs must
// be distinct and in range; an empty attrs means every attribute (the
// full skyline). Tuples are returned in full width, sorted by the
// projected values for determinism. Every layer is scanned: a tuple off
// the full-space skyline can survive in a subspace by tying its
// dominator there.
func (s *Store) SubspaceSkyline(attrs []int) ([][]int, error) {
	m := s.metrics
	if m == nil || m.SkylineSeconds == nil {
		return s.subspaceSkyline(attrs)
	}
	t0 := time.Now()
	out, err := s.subspaceSkyline(attrs)
	m.SkylineSeconds.Observe(time.Since(t0))
	return out, err
}

func (s *Store) subspaceSkyline(attrs []int) ([][]int, error) {
	if len(attrs) == 0 {
		return s.Skyline(), nil
	}
	seen := map[int]bool{}
	for _, a := range attrs {
		if a < 0 || a >= s.m {
			return nil, fmt.Errorf("%w: attribute %d out of range [0,%d)", ErrBadQuery, a, s.m)
		}
		if seen[a] {
			return nil, fmt.Errorf("%w: duplicate attribute %d", ErrBadQuery, a)
		}
		seen[a] = true
	}
	// SFS over the projection: in ascending projected-sum order a tuple
	// can only be dominated by an already-kept one.
	order := make([]int, len(s.tuples))
	sums := make([]int, len(s.tuples))
	for i := range order {
		order[i] = i
		for _, a := range attrs {
			sums[i] += s.tuples[i][a]
		}
	}
	sort.SliceStable(order, func(x, y int) bool { return sums[order[x]] < sums[order[y]] })
	var keep []int
	for _, i := range order {
		dominated := false
		for _, j := range keep {
			if sums[j] >= sums[i] {
				break // kept in sum order; equal sums cannot dominate
			}
			if skyline.DominatesOnSubset(s.tuples[j], s.tuples[i], attrs) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	sort.Slice(keep, func(x, y int) bool {
		a, b := s.tuples[keep[x]], s.tuples[keep[y]]
		for _, at := range attrs {
			if a[at] != b[at] {
				return a[at] < b[at]
			}
		}
		return keep[x] < keep[y]
	})
	out := make([][]int, len(keep))
	for x, i := range keep {
		out[x] = s.tuples[i]
	}
	return out, nil
}

// Dominates reports whether any stored tuple dominates t, returning one
// witness. Only level 0 is scanned: by transitivity, a dominator on a
// deeper layer implies one on the skyline.
func (s *Store) Dominates(t []int) (bool, []int, error) {
	m := s.metrics
	if m == nil || m.DominatesSeconds == nil {
		return s.dominates(t)
	}
	t0 := time.Now()
	ok, witness, err := s.dominates(t)
	m.DominatesSeconds.Observe(time.Since(t0))
	return ok, witness, err
}

func (s *Store) dominates(t []int) (bool, []int, error) {
	if len(t) != s.m {
		return false, nil, fmt.Errorf("%w: tuple width %d, store has %d attributes", ErrBadQuery, len(t), s.m)
	}
	for _, i := range s.levelSlice(0) {
		if skyline.Dominates(s.tuples[i], t) {
			return true, append([]int(nil), s.tuples[i]...), nil
		}
	}
	return false, nil, nil
}
