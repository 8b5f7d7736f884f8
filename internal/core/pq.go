package core

import (
	"sort"

	"hiddensky/internal/query"
)

// pqDBSky discovers the complete skyline of a point-predicate database of
// any dimensionality — the paper's Algorithm 5. It spans a 2D subspace on
// the two attributes with the largest domains (their cost is additive; the
// remaining attributes' is multiplicative), enumerates the value
// combinations of the remaining attributes in preferential order, and runs
// the pruned-subspace routine PQ-2DSUB-SKY (Algorithm 4) on each plane.
func pqDBSky(db Interface, opt Options) (Result, error) {
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	if p := c.newPool(); p != nil {
		defer p.Close()
		err := pqdbRun(c)
		if werr := p.Wait(); err == nil {
			err = werr
		}
		return c.result(err)
	}
	return c.result(pqdbRun(c))
}

func pqdbRun(c *ctx) error {
	switch c.m {
	case 1:
		return pq1dRun(c)
	case 2:
		// One plane is one inherently sequential shorter-side sweep; the
		// parallel executor gains nothing below three dimensions.
		return pq2dRun(c)
	}
	res, err := c.issue(nil) // SELECT *
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		return nil
	}
	c.mergeAll(res.Tuples)
	if !c.overflowed(res) {
		return nil // the whole database fit in one answer
	}
	seed := res.Tuples // rule (a) pruning source: SELECT * contains every subspace

	d1, d2 := widestAttrs(c)
	var others []int
	for a := 0; a < c.m; a++ {
		if a != d1 && a != d2 {
			others = append(others, a)
		}
	}
	if c.pool != nil {
		// Each 2D subspace is an independent branch of Algorithm 5: spawn
		// one plane sweep per value combination of the pinned attributes.
		// The rule-(b) pruning inside each sweep reads a snapshot of the
		// shared candidate skyline — sound under any schedule, since every
		// snapshot tuple is a real database tuple.
		return enumerateCombos(c, others, func(vc []int) error {
			if err := c.pool.Err(); err != nil {
				return err // budget gone: stop scheduling doomed sweeps
			}
			vcc := append([]int(nil), vc...)
			c.pool.Spawn(func() error {
				return pqSubspaceRun(c, d1, d2, others, vcc, seed)
			})
			return nil
		})
	}
	return enumerateCombos(c, others, func(vc []int) error {
		return pqSubspaceRun(c, d1, d2, others, vc, seed)
	})
}

// pq1dRun handles the degenerate single-attribute case: the SELECT * top
// answer is the minimum, and under the general positioning assumption it is
// the unique skyline tuple.
func pq1dRun(c *ctx) error {
	res, err := c.issue(nil)
	if err != nil {
		return err
	}
	if len(res.Tuples) == 0 {
		return nil
	}
	c.mergeAll(res.Tuples)
	if c.overflowed(res) {
		// Fetch possible ties on the minimum explicitly.
		eq, err := c.issue(query.Q{{Attr: 0, Op: query.EQ, Value: res.Tuples[0][0]}})
		if err != nil {
			return err
		}
		c.mergeAll(eq.Tuples)
	}
	return nil
}

// widestAttrs returns the two attributes with the largest domains, the
// paper's dimension-selection heuristic for Algorithm 5.
func widestAttrs(c *ctx) (int, int) {
	idx := allAttrs(c.m)
	sort.SliceStable(idx, func(a, b int) bool {
		return c.domains[idx[a]].Len() > c.domains[idx[b]].Len()
	})
	d1, d2 := idx[0], idx[1]
	if d1 > d2 {
		d1, d2 = d2, d1
	}
	return d1, d2
}

// enumerateCombos visits every value combination of the given attributes in
// ascending lexicographic order — a linear extension of the product
// preferential order, which underpins the anytime property of Algorithm 5.
func enumerateCombos(c *ctx, attrs []int, visit func(vc []int) error) error {
	vc := make([]int, len(attrs))
	var rec func(d int) error
	rec = func(d int) error {
		if d == len(attrs) {
			return visit(vc)
		}
		dom := c.domains[attrs[d]]
		for v := dom.Lo; v <= dom.Hi; v++ {
			vc[d] = v
			if err := rec(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// pqSubspaceRun is PQ-2DSUB-SKY (Algorithm 4): explore the 2D subspace at
// fixed other-attribute values vc, first injecting both pruning rules:
//
//   - rule (a): a tuple t answered by a query containing this subspace with
//     t[other] >= vc everywhere proves the lower-left rectangle
//     (0,0)-(t[d1],t[d2]) holds no subspace tuple (it would have outranked
//     t in that answer);
//   - rule (b): a discovered tuple t with t[other] <= vc everywhere
//     dominates the upper-right rectangle (t[d1],t[d2])-(max,max).
func pqSubspaceRun(c *ctx, d1, d2 int, others []int, vc []int, seed [][]int) error {
	fixed := make(query.Q, len(others))
	for i, a := range others {
		fixed[i] = query.Predicate{Attr: a, Op: query.EQ, Value: vc[i]}
	}
	p := newPlane(c, d1, d2, fixed)

	geq := func(t []int) bool { // t[other] >= vc componentwise
		for i, a := range others {
			if t[a] < vc[i] {
				return false
			}
		}
		return true
	}
	leq := func(t []int) bool { // t[other] <= vc componentwise
		for i, a := range others {
			if t[a] > vc[i] {
				return false
			}
		}
		return true
	}
	for _, t := range seed {
		if geq(t) {
			p.pruneEmptyRect(t[d1], t[d2])
		}
	}
	for _, t := range c.skySnapshot() {
		if leq(t) {
			p.pruneDominatedRect(t[d1], t[d2])
		}
	}
	return p.run()
}
