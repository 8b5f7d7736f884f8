package core

import (
	"fmt"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// BandResult is the outcome of a K-skyband discovery run (§7.2). Band
// discovery assumes the paper's general positioning: tuples with identical
// ranking-attribute values are indistinguishable through a value-level
// interface, so duplicate rows would make domination counts undercount.
type BandResult struct {
	// Tuples holds the K-skyband: every tuple dominated by fewer than K
	// others, in discovery order.
	Tuples [][]int
	// Counts[i] is the number of database tuples dominating Tuples[i]
	// (exact for complete runs: every dominator of a band tuple sits in a
	// lower band level and is therefore itself discovered).
	Counts []int
	// Queries is the number of interface queries issued.
	Queries int
	// Complete is false when the run was interrupted by the budget or ran
	// in the SQ interface's inherently partial mode.
	Complete bool
}

// bandCollector accumulates every discovered tuple (deduplicated by
// value) during a band run; band membership is decided at the end by
// counting dominators inside the discovered set.
type bandCollector struct {
	k      int // band level K
	tuples [][]int
	seen   tupleMap[struct{}]
}

func (bc *bandCollector) add(ts [][]int) {
	for _, t := range ts {
		if bc.seen.add(t, struct{}{}) {
			bc.tuples = append(bc.tuples, t)
		}
	}
}

// finish keeps the tuples with fewer than K dominators. The counts are
// capped at K, which leaves every reported count exact.
func (bc *bandCollector) finish(queries int, complete bool) BandResult {
	counts := skyline.SkybandCounts(bc.tuples, bc.k)
	res := BandResult{Queries: queries, Complete: complete}
	for i, t := range bc.tuples {
		if counts[i] < bc.k {
			res.Tuples = append(res.Tuples, t)
			res.Counts = append(res.Counts, counts[i])
		}
	}
	return res
}

// rqBandSky discovers the K-skyband through a two-ended-range interface.
// Following §7.2, it first discovers the skyline with RQ-DB-SKY, then for
// each band tuple t of level h-1 re-runs the discovery inside t's strict
// domination subspace, which is covered by m mutually exclusive branches
// "A_i = t[A_i] (i < j), A_j > t[A_j], A_i >= t[A_i] (i > j)". The number
// of re-runs is |top-(K-1) band| plus one, exactly as the paper argues.
func rqBandSky(db Interface, kBand int, opt Options) (BandResult, error) {
	if kBand < 1 {
		return BandResult{}, fmt.Errorf("core: band level must be >= 1, got %d", kBand)
	}
	for i := 0; i < db.NumAttrs(); i++ {
		if db.Cap(i) != hidden.RQ {
			return BandResult{}, fmt.Errorf("core: RQBandSky needs two-ended ranges on every attribute; A%d is %s", i, db.Cap(i))
		}
	}
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	bc := bandCollector{k: kBand}

	runTree := func(base query.Q) error {
		c.sky = nil // each sub-run keeps its own candidate skyline
		c.merged = tupleMap[struct{}]{}
		w := newTreeWalker(c, base, allAttrs(c.m), true)
		err := w.run(nil)
		bc.add(c.sky)
		return err
	}

	if err := runTree(nil); err != nil {
		return bc.finish(c.queries, false), err
	}
	frontier := append([][]int(nil), bc.tuples...)
	var explored tupleMap[struct{}]
	for level := 2; level <= kBand; level++ {
		var next [][]int
		for _, t := range frontier {
			if !explored.add(t, struct{}{}) {
				continue
			}
			before := len(bc.tuples)
			// Cover {u : t dominates u} with m disjoint branches.
			for j := 0; j < c.m; j++ {
				base := make(query.Q, 0, c.m)
				for i := 0; i < j; i++ {
					base = append(base, query.Predicate{Attr: i, Op: query.EQ, Value: t[i]})
				}
				base = append(base, query.Predicate{Attr: j, Op: query.GT, Value: t[j]})
				for i := j + 1; i < c.m; i++ {
					base = append(base, query.Predicate{Attr: i, Op: query.GE, Value: t[i]})
				}
				if err := runTree(base); err != nil {
					return bc.finish(c.queries, false), err
				}
			}
			next = append(next, bc.tuples[before:]...)
		}
		frontier = next
	}
	return bc.finish(c.queries, true), nil
}

// pqBandSky discovers the K-skyband through a point-predicate interface.
// The plane engine runs at band level K: a line query keeps its K best
// answers (falling back to fully-specified cell queries when the
// interface's k is smaller, as §7.2 prescribes) and prunes only cells with
// K proven dominators.
func pqBandSky(db Interface, kBand int, opt Options) (BandResult, error) {
	if kBand < 1 {
		return BandResult{}, fmt.Errorf("core: band level must be >= 1, got %d", kBand)
	}
	for i := 0; i < db.NumAttrs(); i++ {
		if db.Cap(i) != hidden.PQ {
			return BandResult{}, fmt.Errorf("core: PQBandSky needs point predicates; A%d is %s", i, db.Cap(i))
		}
	}
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	bc := bandCollector{k: kBand}
	err := pqBandRun(c, &bc)
	return bc.finish(c.queries, err == nil), err
}

func pqBandRun(c *ctx, bc *bandCollector) error {
	res, err := c.issue(nil) // SELECT *
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		return nil
	}
	bc.add(res.Tuples)
	c.mergeAll(res.Tuples)
	if !c.overflowed(res) {
		return nil
	}
	seed := res.Tuples

	runPlane := func(d1, d2 int, fixed query.Q, pruneA func(p *plane)) error {
		p := newPlane(c, d1, d2, fixed)
		p.h = bc.k
		if pruneA != nil {
			pruneA(p)
		}
		if err := p.run(); err != nil {
			bc.add(p.found)
			return err
		}
		bc.add(p.found)
		return nil
	}

	if c.m == 1 {
		// Enumerate values best-first until K tuples or domain exhausted.
		dom := c.domains[0]
		found := 0
		for v := dom.Lo; v <= dom.Hi && found < bc.k; v++ {
			r, err := c.issue(query.Q{{Attr: 0, Op: query.EQ, Value: v}})
			if err != nil {
				return err
			}
			if len(r.Tuples) > 0 {
				bc.add(r.Tuples)
				found += len(r.Tuples)
			}
		}
		return nil
	}
	if c.m == 2 {
		return runPlane(0, 1, nil, func(p *plane) {
			// Rule (a): anything dominating a SELECT * answer would have
			// been answered too.
			for _, t := range seed {
				p.pruneEmptyRect(t[0], t[1])
			}
		})
	}
	d1, d2 := widestAttrs(c)
	var others []int
	for a := 0; a < c.m; a++ {
		if a != d1 && a != d2 {
			others = append(others, a)
		}
	}
	return enumerateCombos(c, others, func(vc []int) error {
		fixed := make(query.Q, len(others))
		for i, a := range others {
			fixed[i] = query.Predicate{Attr: a, Op: query.EQ, Value: vc[i]}
		}
		return runPlane(d1, d2, fixed, func(p *plane) {
			for _, t := range seed {
				ge := true
				for i, a := range others {
					if t[a] < vc[i] {
						ge = false
						break
					}
				}
				if ge {
					p.pruneEmptyRect(t[d1], t[d2])
				}
			}
		})
	})
}

// sqBandSky discovers the K-skyband through a one-ended-range interface —
// the paper's hardest case (§7.2 proves completeness may require crawling).
// It is Algorithm 1's walk configured with a band collector as its answer
// sink and a branch tuple provably dominated by K-1 others (see
// treeWalker.branchTuple); when an overflowing node has no such tuple the
// subtree is abandoned and the result is marked partial (Complete=false).
// With k >= K this rarely triggers near the top of the tree, matching the
// paper's observation. At K=1 the walk is SQ-DB-SKY's, query for query.
func sqBandSky(db Interface, kBand int, opt Options) (BandResult, error) {
	if kBand < 1 {
		return BandResult{}, fmt.Errorf("core: band level must be >= 1, got %d", kBand)
	}
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	w := newTreeWalker(c, nil, allAttrs(c.m), false)
	w.band = &bandCollector{k: kBand}
	err := w.run(nil)
	return w.band.finish(c.queries, err == nil && !w.incomplete), err
}
