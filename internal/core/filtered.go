package core

import (
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// filteredView backs Request.Filter — §2.1's observation that constrained
// skylines need no new machinery: "simply append the filtering conditions
// as conjunctive predicates to all queries issued". It presents the subset
// of a hidden database matching a conjunctive filter as a database of its
// own: every query silently carries the filter, and the advertised domains
// shrink to the filter's box. All discovery algorithms work through it
// unchanged.
type filteredView struct {
	db     Interface
	filter query.Q
}

func (f *filteredView) Query(q query.Q) (hidden.Result, error) {
	merged := f.filter.Clone()
	merged = append(merged, q...)
	return f.db.Query(merged)
}

func (f *filteredView) NumAttrs() int { return f.db.NumAttrs() }

func (f *filteredView) K() int { return f.db.K() }

func (f *filteredView) Cap(i int) hidden.Capability { return f.db.Cap(i) }

func (f *filteredView) Domain(i int) query.Interval {
	dom := f.db.Domain(i)
	domains := make([]query.Interval, f.db.NumAttrs())
	for a := range domains {
		domains[a] = f.db.Domain(a)
	}
	return f.filter.Canonicalize(domains).Dims[i].Intersect(dom)
}
