package core

import (
	"sort"

	"hiddensky/internal/query"
)

// mqDBSky discovers the complete skyline of a database whose interface
// mixes one-ended range (SQ), two-ended range (RQ) and point (PQ)
// attributes — the paper's Algorithm 6. Pure interfaces dispatch to the
// specialized algorithms. For genuine mixtures it proceeds in two phases:
//
//  1. a range phase running the SQ/RQ query tree over the range attributes
//     with the point attributes unconstrained (every tuple it returns is a
//     global skyline tuple);
//  2. a point phase that finds the tuples the range phase must miss — those
//     range-dominated by a discovered tuple but superior on some point
//     attribute. The search space is pruned by appending
//     "A_j >= min_{t in S} t[A_j]" for each two-ended range attribute
//     (eq. 17), point-value combinations are enumerated hierarchically so
//     that one empty probe discards a whole sub-lattice (MIXED-DB-SKY's
//     premise), combinations weakly point-dominated by every discovered
//     tuple are skipped outright, and each surviving cell is resolved by
//     re-running the range-phase tree inside the cell (a tuple dominated
//     within its cell is dominated globally, so the cell skyline suffices).
func mqDBSky(db Interface, opt Options) (Result, error) {
	db, opt = prepare(db, opt)
	sqA, rqA, pqA := attrsByCap(db)
	switch {
	case len(pqA) == 0 && len(rqA) == 0:
		return sqDBSky(db, opt)
	case len(pqA) == 0:
		return rqDBSky(db, opt)
	case len(sqA) == 0 && len(rqA) == 0:
		return pqDBSky(db, opt)
	}

	c := newCtx(db, opt)
	pool := c.newPool()
	if pool != nil {
		defer pool.Close()
	}
	rangeAttrs := append(append([]int(nil), sqA...), rqA...)
	sort.Ints(rangeAttrs)
	anyRQ := len(rqA) > 0

	// Phase 1: range-attribute skyline (point attributes set to "*"). The
	// pruning bound of phase 2 needs the complete phase-1 skyline, so the
	// parallel run drains the pool (a barrier) before moving on.
	w := newTreeWalker(c, nil, rangeAttrs, anyRQ)
	if pool != nil {
		w.runOn(pool, nil)
		if err := pool.Wait(); err != nil {
			return c.result(err)
		}
	} else if err := w.run(nil); err != nil {
		return c.result(err)
	}
	phase1 := c.skySnapshot()
	if len(phase1) == 0 {
		return c.result(nil) // empty database
	}

	// eq. 17: prune the point phase to the region range-dominated by the
	// union of discovered tuples, expressible only on two-ended attributes.
	var pruneP query.Q
	for _, a := range rqA {
		min := phase1[0][a]
		for _, t := range phase1[1:] {
			if t[a] < min {
				min = t[a]
			}
		}
		if min > c.domains[a].Lo {
			pruneP = append(pruneP, query.Predicate{Attr: a, Op: query.GE, Value: min})
		}
	}

	err := mqPointPhase(c, pruneP, pqA, rangeAttrs, anyRQ, phase1)
	if pool != nil {
		// The probe loop schedules cell trees asynchronously; drain them.
		if werr := pool.Wait(); err == nil {
			err = werr
		}
	}
	return c.result(err)
}

// mqPointPhase hierarchically enumerates point-attribute value
// combinations: a probe query pinning a prefix (deeper point attributes
// free) that returns empty discards the entire completion sub-lattice. At
// full depth the cell is explored with the range-phase tree walker, seeded
// with the probe's answer to avoid re-issuing the cell's root query.
func mqPointPhase(c *ctx, pruneP query.Q, pqA, rangeAttrs []int, anyRQ bool, phase1 [][]int) error {
	prefix := make(query.Q, 0, len(pqA))
	// Each probe is built into one reused buffer: c.issue does not retain
	// its query, and a probe that seeds a cell walker is cloned there.
	probe := make(query.Q, 0, len(pruneP)+len(pqA))
	var rec func(d int) error
	rec = func(d int) error {
		dom := c.domains[pqA[d]]
		for v := dom.Lo; v <= dom.Hi; v++ {
			if c.pool != nil {
				if err := c.pool.Err(); err != nil {
					return err // a cell tree hit the budget: stop probing
				}
			}
			pfx := append(prefix, query.Predicate{Attr: pqA[d], Op: query.EQ, Value: v})
			if d == len(pqA)-1 && mqSkippableCombo(pfx, pqA, phase1) {
				continue
			}
			probe = append(append(probe[:0], pruneP...), pfx...)
			res, err := c.issue(probe)
			if err != nil {
				return err
			}
			if len(res.Tuples) == 0 {
				continue // nothing in this sub-lattice
			}
			c.mergeAll(res.Tuples)
			if d < len(pqA)-1 {
				prefix = pfx
				if err := rec(d + 1); err != nil {
					return err
				}
				prefix = pfx[:len(pfx)-1]
				continue
			}
			if !c.overflowed(res) {
				continue // probe returned the whole cell
			}
			// Resolve the overflowing cell with the range-phase tree,
			// reusing the probe answer as the root node's result. Cells are
			// independent, so the parallel run lets their trees resolve on
			// the pool while probing continues.
			w := newTreeWalker(c, probe.Clone(), rangeAttrs, anyRQ)
			if c.pool != nil {
				w.runOn(c.pool, &res)
				continue
			}
			if err := w.run(&res); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// mqSkippableCombo reports whether the full point-value combination is
// weakly point-dominated by every phase-1 tuple: any undiscovered tuple
// with these point values would be range-dominated by some phase-1 tuple
// that is also no worse on every point attribute, hence dominated globally.
func mqSkippableCombo(combo query.Q, pqA []int, phase1 [][]int) bool {
	for _, t := range phase1 {
		worse := false
		for i, a := range pqA {
			if t[a] > combo[i].Value {
				worse = true
				break
			}
		}
		if worse {
			return false
		}
	}
	return true
}
