package core

import (
	"fmt"

	"hiddensky/internal/query"
)

// plane drives skyline discovery inside one two-dimensional (sub)space of a
// point-predicate database — the engine behind PQ-2D-SKY (Algorithm 3) and
// PQ-2DSUB-SKY (Algorithm 4).
//
// The subspace spans attributes d1 (columns, "x") and d2 (rows, "y"),
// optionally with every other attribute pinned by the fixed predicates.
// Unexplored candidate cells are tracked as one interval of rows per
// column: cand[x] = [candLo[x], candHi[x]]. Every pruning step below is a
// proof (cells are removed only when provably empty or provably dominated
// by a known tuple with fixed-attribute values no worse than the
// subspace's), so completeness never depends on the traversal heuristics.
//
// Because every issued query pins all attributes except one, its matching
// tuples are totally ordered by dominance, so the top-ranked answer is the
// minimum of the free attribute — the paper's "guaranteed single skyline
// return" property that makes 1D answers authoritative.
type plane struct {
	c      *ctx
	d1, d2 int
	fixed  query.Q // EQ predicates pinning the remaining attributes
	x0, x1 int     // domain of d1
	y0, y1 int     // domain of d2
	h      int     // sky-band level: 1 = skyline (§7.2 extension when > 1)

	candLo []int // per column (index x-x0): lowest unexplored row
	candHi []int // per column: highest unexplored row

	found [][]int // tuples returned by queries in this plane
}

func newPlane(c *ctx, d1, d2 int, fixed query.Q) *plane {
	p := &plane{
		c:     c,
		d1:    d1,
		d2:    d2,
		fixed: fixed,
		h:     1,
		x0:    c.domains[d1].Lo,
		x1:    c.domains[d1].Hi,
		y0:    c.domains[d2].Lo,
		y1:    c.domains[d2].Hi,
	}
	n := p.x1 - p.x0 + 1
	p.candLo = make([]int, n)
	p.candHi = make([]int, n)
	for i := range p.candLo {
		p.candLo[i] = p.y0
		p.candHi[i] = p.y1
	}
	return p
}

func (p *plane) col(x int) int { return x - p.x0 }

// pruneEmptyRect marks every cell with x <= ex and y <= ey as proven empty
// (Algorithm 4's lower-left pruning: a tuple there would dominate — and so
// outrank — a tuple returned by a query containing this subspace).
func (p *plane) pruneEmptyRect(ex, ey int) {
	for x := p.x0; x <= ex && x <= p.x1; x++ {
		if lo := ey + 1; lo > p.candLo[p.col(x)] {
			p.candLo[p.col(x)] = lo
		}
	}
}

// pruneDominatedRect marks every cell with x >= dx and y >= dy as dominated
// (Algorithm 4's upper-right pruning from a discovered tuple whose other
// attributes are no worse than the subspace's).
func (p *plane) pruneDominatedRect(dx, dy int) {
	for x := dx; x <= p.x1; x++ {
		if x < p.x0 {
			continue
		}
		if hi := dy - 1; hi < p.candHi[p.col(x)] {
			p.candHi[p.col(x)] = hi
		}
	}
}

// resolveColumn empties column x's candidate interval.
func (p *plane) resolveColumn(x int) {
	p.candLo[p.col(x)] = p.y1 + 1
	p.candHi[p.col(x)] = p.y1
}

// dropRowBoundary removes row y from column x's interval when y sits on the
// interval boundary; interior holes cannot be represented and are skipped
// (a sound over-approximation: the cell merely stays explorable).
func (p *plane) dropRowBoundary(x, y int) {
	i := p.col(x)
	if p.candLo[i] > p.candHi[i] {
		return
	}
	switch y {
	case p.candLo[i]:
		p.candLo[i]++
	case p.candHi[i]:
		p.candHi[i]--
	}
}

// band is a maximal run of consecutive columns sharing one non-empty
// candidate interval — Algorithm 4's rectangle decomposition of the pruned
// subspace.
type band struct {
	xa, xb int // first and last column
	lo, hi int // shared row interval
}

func (b band) width() int  { return b.xb - b.xa + 1 }
func (b band) height() int { return b.hi - b.lo + 1 }

// bands returns the current rectangle decomposition, left to right.
func (p *plane) bands() []band {
	var out []band
	for x := p.x0; x <= p.x1; x++ {
		i := p.col(x)
		if p.candLo[i] > p.candHi[i] {
			continue
		}
		if len(out) > 0 && out[len(out)-1].xb == x-1 &&
			out[len(out)-1].lo == p.candLo[i] && out[len(out)-1].hi == p.candHi[i] {
			out[len(out)-1].xb = x
			continue
		}
		out = append(out, band{xa: x, xb: x, lo: p.candLo[i], hi: p.candHi[i]})
	}
	return out
}

// columnQuery issues "d1 = x" (plus the fixed predicates) and applies every
// pruning consequence. It always resolves column x. Matching tuples differ
// only on d2, so the answer lists the column's best-h rows (band mode needs
// the h best; when the interface's k is smaller, cellFallback enumerates
// the remaining cells with fully-specified 0D queries, as §7.2 prescribes).
func (p *plane) columnQuery(x int) error {
	q := p.fixed.With(query.Predicate{Attr: p.d1, Op: query.EQ, Value: x})
	res, err := p.c.issue(q)
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		p.resolveColumn(x)
		return nil
	}
	p.noteFound(res.Tuples)
	tuples := res.Tuples
	if p.c.overflowed(res) && len(tuples) < p.h {
		tuples, err = p.cellFallback(tuples, p.d2, func(y int) query.Q {
			return q.With(query.Predicate{Attr: p.d2, Op: query.EQ, Value: y})
		}, func(t []int) int { return t[p.d2] })
		if err != nil {
			return err
		}
	}
	p.resolveColumn(x)
	// With c >= h column tuples known, every cell (x' > x, y >= y_h) is
	// dominated by at least h tuples (the column's h best all dominate it).
	if len(tuples) >= p.h && x+1 <= p.x1 {
		p.pruneDominatedRect(x+1, tuples[p.h-1][p.d2])
	}
	return nil
}

// rowQuery issues "d2 = y" and applies its pruning consequences; callers
// must ensure y is the shared candLo of the issuing band so an empty answer
// still makes progress. The whole row is resolved by the answer.
func (p *plane) rowQuery(y int) error {
	q := p.fixed.With(query.Predicate{Attr: p.d2, Op: query.EQ, Value: y})
	res, err := p.c.issue(q)
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		for x := p.x0; x <= p.x1; x++ {
			p.dropRowBoundary(x, y)
		}
		return nil
	}
	p.noteFound(res.Tuples)
	tuples := res.Tuples
	if p.c.overflowed(res) && len(tuples) < p.h {
		tuples, err = p.cellFallback(tuples, p.d1, func(x int) query.Q {
			return q.With(query.Predicate{Attr: p.d1, Op: query.EQ, Value: x})
		}, func(t []int) int { return t[p.d1] })
		if err != nil {
			return err
		}
	}
	// Cells left of the smallest returned x are proven empty; returned
	// cells are occupied and recorded; cells beyond the h-th returned x
	// are dominated by >= h row tuples. Either way the row is resolved.
	for x := p.x0; x <= p.x1; x++ {
		p.dropRowBoundary(x, y)
	}
	if len(tuples) >= p.h {
		xh := tuples[p.h-1][p.d1]
		if y+1 <= p.y1 {
			p.pruneDominatedRect(xh, y+1)
		}
	}
	return nil
}

// cellFallback recovers the h best line tuples when the top-k answer was
// truncated below the band level: starting just past the last returned
// value of the free attribute, it issues fully-specified point queries cell
// by cell until h tuples are known or the domain is exhausted.
func (p *plane) cellFallback(tuples [][]int, freeAttr int, mkQuery func(v int) query.Q, free func(t []int) int) ([][]int, error) {
	out := append([][]int(nil), tuples...)
	v := free(out[len(out)-1]) + 1
	hi := p.c.domains[freeAttr].Hi
	for len(out) < p.h && v <= hi {
		res, err := p.c.issue(mkQuery(v))
		if err != nil {
			return out, err
		}
		if len(res.Tuples) > 0 {
			p.noteFound(res.Tuples)
			out = append(out, res.Tuples[0])
		}
		v++
	}
	return out, nil
}

// noteFound records returned tuples as discovery candidates. With k > 1 a
// query may return deeper (dominated-within-the-line) tuples; Merge
// discards them.
func (p *plane) noteFound(ts [][]int) {
	for _, t := range ts {
		p.found = append(p.found, append([]int(nil), t...))
		p.c.merge(t)
	}
}

// run explores the plane to exhaustion: repeatedly pick the leftmost band
// and follow Algorithm 3's shorter-side rule — query the band's left column
// when it is narrower than tall, otherwise its best (lowest-value) row.
func (p *plane) run() error {
	for {
		bs := p.bands()
		if len(bs) == 0 {
			return nil
		}
		b := bs[0]
		if b.width() < b.height() {
			if err := p.columnQuery(b.xa); err != nil {
				return err
			}
		} else {
			if err := p.rowQuery(b.lo); err != nil {
				return err
			}
		}
	}
}

// pq2DSky discovers the complete skyline of a two-attribute point-predicate
// database — the paper's instance-optimal Algorithm 3. The initial
// SELECT * answer seeds the two diagonal rectangles of Figure 7; the rest
// is the shorter-side sweep.
func pq2DSky(db Interface, opt Options) (Result, error) {
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	if c.m != 2 {
		return Result{}, errBadDims(c.m, 2)
	}
	err := pq2dRun(c)
	return c.result(err)
}

func pq2dRun(c *ctx) error {
	res, err := c.issue(nil) // SELECT *
	if err != nil {
		return err
	}
	p := newPlane(c, 0, 1, nil)
	if len(res.Tuples) == 0 {
		return nil // empty database: nothing beyond SELECT *
	}
	p.noteFound(res.Tuples)
	t0 := res.Tuples[0]
	// No tuple can dominate t0 (it would outrank it), and everything in the
	// upper-right quadrant is dominated by t0.
	p.pruneEmptyRect(t0[0], t0[1])
	p.pruneDominatedRect(t0[0], t0[1])
	if !c.overflowed(res) {
		// Every matching tuple was returned; the database is fully known.
		return nil
	}
	return p.run()
}

func errBadDims(got, want int) error {
	return fmt.Errorf("core: database has %d attributes, algorithm requires %d", got, want)
}
