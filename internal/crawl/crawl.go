// Package crawl implements complete extraction of a hidden database
// through its top-k interface — the paper's BASELINE competitor, standing
// in for the rank-shrink crawler of Sheng et al. (VLDB 2012, reference
// [22]). The crawler recursively partitions the data space with two-ended
// range predicates: a query that overflows splits its box on the k-th
// answer's value along a chosen attribute, guaranteeing each side matches
// strictly fewer unseen tuples. The query cost carries the O(m·n) flavour
// the paper cites for complete crawling, which is what makes skyline-aware
// discovery orders of magnitude cheaper.
package crawl

import (
	"errors"
	"fmt"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// ErrBudget is wrapped into the error returned when the crawl is cut short
// by a rate limit or MaxQueries; the partial tuple set is still returned.
var ErrBudget = errors.New("crawl: query budget exhausted (partial crawl)")

// Interface is the view of the hidden database the crawler needs; it is
// satisfied by *hidden.DB.
type Interface interface {
	Query(q query.Q) (hidden.Result, error)
	NumAttrs() int
	K() int
	Cap(i int) hidden.Capability
	Domain(i int) query.Interval
}

// Options tunes a crawl.
type Options struct {
	// MaxQueries, when positive, aborts the crawl after that many queries
	// with ErrBudget and the tuples collected so far.
	MaxQueries int
	// OnBatch, when set, observes every non-empty answer: the cumulative
	// query count and the batch of returned tuples. The experiment harness
	// uses it to trace when each eventual skyline tuple was first crawled.
	OnBatch func(queries int, tuples [][]int)
}

// Result is the outcome of a crawl.
type Result struct {
	// Tuples holds every distinct tuple value combination retrieved.
	Tuples [][]int
	// Queries is the number of interface queries issued.
	Queries int
	// Complete reports whether the whole database was provably covered.
	Complete bool
}

// Crawl retrieves the entire database. Every ranking attribute must
// support two-ended ranges (the baseline's requirement, as the paper notes
// when excluding BASELINE from SQ-only comparisons).
func Crawl(db Interface, opt Options) (Result, error) {
	m := db.NumAttrs()
	for i := 0; i < m; i++ {
		if db.Cap(i) != hidden.RQ {
			return Result{}, fmt.Errorf("crawl: BASELINE needs two-ended ranges on every attribute; A%d is %s", i, db.Cap(i))
		}
	}
	c := &crawler{db: db, opt: opt, seen: map[string]bool{}}
	root := make([]query.Interval, m)
	for i := 0; i < m; i++ {
		root[i] = db.Domain(i)
	}
	err := c.crawlBox(root)
	res := Result{Tuples: c.tuples, Queries: c.queries, Complete: err == nil}
	return res, err
}

// CrawlSkyline runs the full BASELINE pipeline: crawl everything, then
// extract the skyline locally.
func CrawlSkyline(db Interface, opt Options) (Result, [][]int, error) {
	res, err := Crawl(db, opt)
	if err != nil {
		return res, nil, err
	}
	return res, skyline.ComputeTuples(res.Tuples), nil
}

type crawler struct {
	db      Interface
	opt     Options
	queries int
	tuples  [][]int
	seen    map[string]bool
}

func (c *crawler) issue(q query.Q) (hidden.Result, error) {
	if c.opt.MaxQueries > 0 && c.queries >= c.opt.MaxQueries {
		return hidden.Result{}, ErrBudget
	}
	res, err := c.db.Query(q)
	if err != nil {
		if errors.Is(err, hidden.ErrRateLimited) {
			return hidden.Result{}, fmt.Errorf("%w: %v", ErrBudget, err)
		}
		return hidden.Result{}, err
	}
	c.queries++
	return res, nil
}

func (c *crawler) record(ts [][]int) {
	for _, t := range ts {
		k := fmt.Sprint(t)
		if !c.seen[k] {
			c.seen[k] = true
			c.tuples = append(c.tuples, append([]int(nil), t...))
		}
	}
}

// boxQuery renders a box as a conjunctive two-ended range query.
func (c *crawler) boxQuery(box []query.Interval) query.Q {
	var q query.Q
	for i, iv := range box {
		dom := c.db.Domain(i)
		if iv.Lo > dom.Lo {
			q = append(q, query.Predicate{Attr: i, Op: query.GE, Value: iv.Lo})
		}
		if iv.Hi < dom.Hi {
			q = append(q, query.Predicate{Attr: i, Op: query.LE, Value: iv.Hi})
		}
	}
	return q
}

// crawlBox retrieves every tuple inside box. On overflow it splits the box
// along the attribute where the k-th (worst returned) answer leaves the
// most room, using that answer's value as the pivot: the "lower" side is
// strictly smaller in one dimension and the recursion therefore
// terminates; tuples straddling the pivot value are covered by both
// halves' closed intervals being disjoint at integer granularity.
func (c *crawler) crawlBox(box []query.Interval) error {
	for _, iv := range box {
		if iv.Empty() {
			return nil
		}
	}
	res, err := c.issue(c.boxQuery(box))
	if err != nil {
		return err
	}
	c.record(res.Tuples)
	if c.opt.OnBatch != nil && len(res.Tuples) > 0 {
		c.opt.OnBatch(c.queries, res.Tuples)
	}
	if !res.Overflow {
		return nil
	}
	pivotTuple := res.Tuples[len(res.Tuples)-1]
	// Choose the split attribute: the one whose box interval is largest,
	// preferring splits that make both halves non-trivial.
	attr, pivot := -1, 0
	bestSpan := 0
	for i, iv := range box {
		if iv.Len() < 2 {
			continue
		}
		p := pivotTuple[i]
		// Candidate split: [lo, p-1] and [p, hi]; fall back to the middle
		// when the pivot value sits on the lower edge. Len saturates at
		// MaxInt, so Lo+Len/2 lies in (Lo, Hi] even across all of int.
		if p <= iv.Lo {
			p = iv.Lo + iv.Len()/2
		}
		if p > iv.Hi {
			p = iv.Hi
		}
		if iv.Len() > bestSpan {
			bestSpan = iv.Len()
			attr, pivot = i, p
		}
	}
	if attr < 0 {
		// The box is a single point yet overflows: more than k tuples
		// share one value combination. Points cannot be subdivided; the
		// interface physically cannot reveal the hidden duplicates, so
		// record what we have (the top-k of the point) and move on.
		return nil
	}
	lower := cloneBox(box)
	lower[attr].Hi = pivot - 1
	upper := cloneBox(box)
	upper[attr].Lo = pivot
	// Recurse lower half first: it holds the better-ranked values, which
	// preserves a useful anytime-ish bias even though BASELINE cannot
	// certify skyline membership before completion.
	if err := c.crawlBox(lower); err != nil {
		return err
	}
	return c.crawlBox(upper)
}

func cloneBox(box []query.Interval) []query.Interval {
	return append([]query.Interval(nil), box...)
}
