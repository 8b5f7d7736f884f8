package core

import (
	"sync"

	"hiddensky/internal/engine"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// treeWalker implements the divide-and-conquer query tree shared by
// SQ-DB-SKY (Algorithm 1) and RQ-DB-SKY (Algorithm 2). Each node is a
// conjunctive query; a node that overflows branches into one child per
// branching attribute, appending "A_i < t[A_i]" for the node's branching
// tuple t. RQ mode additionally maintains the mutually-exclusive
// counterpart R(q) of each node (lower bounds from earlier branches) and
// the Seen set enabling early termination.
type treeWalker struct {
	c     *ctx
	base  query.Q // predicates appended to every issued query (cell phase)
	attrs []int   // branching attribute indices, in branch order
	me    []bool  // me[j]: attrs[j] supports ">=" and participates in R(q)
	rq    bool    // Algorithm 2 mode (Seen check + R(q)); false = Algorithm 1

	mu      sync.Mutex // guards seen/seenSet when sibling subtrees run in parallel
	seen    [][]int    // every tuple returned so far (RQ mode), oldest first
	seenSet tupleMap[struct{}]
}

// node is one query-tree node. ub[j] is the exclusive upper bound on
// attrs[j] accumulated from "<" predicates (domain.Hi+1 when unbounded);
// lb[j] is the inclusive lower bound of R(q) accumulated from ">="
// predicates (domain.Lo when unbounded).
type node struct {
	ub []int
	lb []int
}

func newTreeWalker(c *ctx, base query.Q, attrs []int, me []bool, rqMode bool) *treeWalker {
	return &treeWalker{c: c, base: base, attrs: attrs, me: me, rq: rqMode}
}

func (w *treeWalker) root() node {
	ub := make([]int, len(w.attrs))
	lb := make([]int, len(w.attrs))
	for j, a := range w.attrs {
		ub[j] = w.c.domains[a].Hi + 1
		lb[j] = w.c.domains[a].Lo
	}
	return node{ub: ub, lb: lb}
}

// buildQ renders the node's SQ-form query: base plus one "<" predicate per
// bounded branching attribute.
func (w *treeWalker) buildQ(n node) query.Q {
	q := w.base.Clone()
	for j, a := range w.attrs {
		if n.ub[j] <= w.c.domains[a].Hi {
			q = append(q, query.Predicate{Attr: a, Op: query.LT, Value: n.ub[j]})
		}
	}
	return q
}

// buildR renders R(q): the SQ-form query plus the ">=" lower bounds that
// make sibling subtrees mutually exclusive.
func (w *treeWalker) buildR(n node) query.Q {
	q := w.buildQ(n)
	for j, a := range w.attrs {
		if w.me[j] && n.lb[j] > w.c.domains[a].Lo {
			q = append(q, query.Predicate{Attr: a, Op: query.GE, Value: n.lb[j]})
		}
	}
	return q
}

// children expands a node using branching tuple b: child j appends
// "A_j < b[A_j]" to q, and (in RQ mode) "A_i >= b[A_i]" for earlier
// branches i < j to R(q).
func (w *treeWalker) children(n node, b []int) []node {
	kids := make([]node, 0, len(w.attrs))
	for j := range w.attrs {
		ub := append([]int(nil), n.ub...)
		lb := append([]int(nil), n.lb...)
		if v := b[w.attrs[j]]; v < ub[j] {
			ub[j] = v
		}
		for i := 0; i < j; i++ {
			if w.me[i] {
				if v := b[w.attrs[i]]; v > lb[i] {
					lb[i] = v
				}
			}
		}
		kids = append(kids, node{ub: ub, lb: lb})
	}
	return kids
}

// matchesQ reports whether tuple t satisfies the node's SQ-form query,
// including the base predicates.
func (w *treeWalker) matchesQ(n node, t []int) bool {
	if !w.base.Matches(t) {
		return false
	}
	for j, a := range w.attrs {
		if t[a] >= n.ub[j] {
			return false
		}
	}
	return true
}

// anySeenMatches implements Algorithm 2's early-termination test. Newest
// tuples are checked first: a node's query space usually overlaps what its
// recently-explored siblings returned, so the scan exits early in practice.
func (w *treeWalker) anySeenMatches(n node) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.seen) - 1; i >= 0; i-- {
		if w.matchesQ(n, w.seen[i]) {
			return true
		}
	}
	return false
}

// run traverses the whole tree. SQ mode uses the FIFO queue of Algorithm 1;
// RQ mode uses the depth-first preorder of Algorithm 2 (required for the
// post-order mapping that defines R(q)).
func (w *treeWalker) run() error {
	if w.rq {
		return w.walkRQ(w.root())
	}
	return w.runQueue([]node{w.root()})
}

// runSeeded is run with the root node's answer already in hand (the mixed
// algorithm's cell probe doubles as the cell tree's root query).
func (w *treeWalker) runSeeded(root hidden.Result) error {
	n := w.root()
	w.noteSeen(root.Tuples)
	if !w.c.overflowed(root) {
		return nil
	}
	kids := w.children(n, root.Tuples[0])
	if w.rq {
		for _, kid := range kids {
			if err := w.walkRQ(kid); err != nil {
				return err
			}
		}
		return nil
	}
	return w.runQueue(kids)
}

func (w *treeWalker) runQueue(queue []node) error {
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		q := w.buildQ(n)
		res, err := w.c.issue(q)
		if err != nil {
			return err
		}
		w.c.mergeAll(res.Tuples)
		if w.c.overflowed(res) {
			queue = append(queue, w.children(n, res.Tuples[0])...)
		}
	}
	return nil
}

// walkRQ is the recursive body of Algorithm 2.
func (w *treeWalker) walkRQ(n node) error {
	var branch []int
	if !w.anySeenMatches(n) {
		q := w.buildQ(n)
		res, err := w.c.issue(q)
		if err != nil {
			return err
		}
		w.noteSeen(res.Tuples)
		w.c.mergeAll(res.Tuples)
		if !w.c.overflowed(res) {
			return nil
		}
		branch = res.Tuples[0]
	} else {
		rq := w.buildR(n)
		res, err := w.c.issue(rq)
		if err != nil {
			return err
		}
		if len(res.Tuples) == 0 {
			return nil // no undiscovered tuple below this subtree: abandon
		}
		t0 := res.Tuples[0]
		branch = t0
		if s := w.c.findDominator(t0); s != nil {
			branch = s
		}
		w.noteSeen(res.Tuples)
		w.c.mergeAll(res.Tuples)
		if !w.c.overflowed(res) {
			return nil
		}
	}
	for _, kid := range w.children(n, branch) {
		if err := w.walkRQ(kid); err != nil {
			return err
		}
	}
	return nil
}

// runOn schedules the whole traversal as tasks on the bounded worker pool
// and returns immediately; the caller drains the pool with Wait. Sibling
// subtrees are independent branches of the divide-and-conquer cascade, so
// each becomes its own task. Correctness is schedule-independent: the
// R(q)-empty early termination is a ground-truth statement about the
// database (no tuple of q's region lies outside the sibling cover), and
// the branch-tuple corner cut only ever removes tuples dominated by an
// already-merged tuple — neither depends on which subtree finishes first.
// Query counts may differ from the sequential run (the Seen set fills in a
// different order) but the discovered skyline is the same set.
//
// A cancelled run is a different matter: an R(q) answer is skyline-safe
// only once every subtree before it in preorder has finished, which the
// sequential walk gets from its order and the parallel walk does not.
// RQ-mode nodes therefore stay registered with the ctx (openNode) until
// their task completes, and a partial result drops every tuple an
// unfinished node's region could still dominate (see ctx.result).
func (w *treeWalker) runOn(p *engine.Pool) {
	w.spawn(p, w.root())
}

// runSeededOn is runOn with the root node's answer already in hand (the
// mixed algorithm's cell probe doubles as the cell tree's root query).
func (w *treeWalker) runSeededOn(p *engine.Pool, root hidden.Result) {
	n := w.root()
	w.noteSeen(root.Tuples)
	if !w.c.overflowed(root) {
		return
	}
	for _, kid := range w.children(n, root.Tuples[0]) {
		w.spawn(p, kid)
	}
}

// spawn schedules node n's task on the pool. In RQ mode the node stays
// open with the ctx until its task completes: children are opened
// before their parent closes, so at any moment the open nodes' R(q)
// regions cover every skyline tuple not yet discovered.
func (w *treeWalker) spawn(p *engine.Pool, n node) {
	id := 0
	if w.rq {
		id = w.c.openNode(w.attrs, n.lb)
	}
	p.Spawn(func() error {
		err := w.task(p, n)
		if err == nil && id != 0 {
			w.c.closeNode(id)
		}
		return err
	})
}

// task processes one tree node on the pool: issue the node's query (or
// its R(q) counterpart in RQ mode) and spawn one task per child subtree.
// It mirrors runQueue's body (SQ mode) and walkRQ's body (RQ mode)
// exactly, with recursion replaced by spawn.
func (w *treeWalker) task(p *engine.Pool, n node) error {
	var branch []int
	if !w.rq || !w.anySeenMatches(n) {
		q := w.buildQ(n)
		res, err := w.c.issue(q)
		if err != nil {
			return err
		}
		if w.rq {
			w.c.noteOrigin(res.Tuples, nil)
		}
		w.noteSeen(res.Tuples)
		w.c.mergeAll(res.Tuples)
		if !w.c.overflowed(res) {
			return nil
		}
		branch = res.Tuples[0]
	} else {
		rq := w.buildR(n)
		res, err := w.c.issue(rq)
		if err != nil {
			return err
		}
		if len(res.Tuples) == 0 {
			return nil // no undiscovered tuple below this subtree: abandon
		}
		t0 := res.Tuples[0]
		branch = t0
		if s := w.c.findDominator(t0); s != nil {
			branch = s
		}
		w.c.noteOrigin(res.Tuples, n.lb)
		w.noteSeen(res.Tuples)
		w.c.mergeAll(res.Tuples)
		if !w.c.overflowed(res) {
			return nil
		}
	}
	for _, kid := range w.children(n, branch) {
		w.spawn(p, kid)
	}
	return nil
}

func (w *treeWalker) noteSeen(ts [][]int) {
	if !w.rq {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range ts {
		if w.seenSet.add(t, struct{}{}) {
			w.seen = append(w.seen, t)
		}
	}
}

// allAttrs returns [0, m).
func allAttrs(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// sqDBSky discovers the complete skyline through a one-ended-range (SQ)
// interface — the paper's Algorithm 1. It also runs unchanged on RQ
// interfaces (a strictly stronger capability).
func sqDBSky(db Interface, opt Options) (Result, error) {
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	attrs := allAttrs(c.m)
	w := newTreeWalker(c, nil, attrs, make([]bool, len(attrs)), false)
	if p := c.newPool(); p != nil {
		defer p.Close()
		w.runOn(p)
		return c.result(p.Wait())
	}
	return c.result(w.run())
}

// rqDBSky discovers the complete skyline through a two-ended-range (RQ)
// interface — the paper's Algorithm 2, which prunes subtrees whose
// mutually-exclusive counterpart R(q) proves empty. Attributes that only
// support one-ended ranges are handled by omitting their ">=" bounds from
// R(q), which keeps the traversal correct (R(q) only grows, so no subtree
// is abandoned wrongly) at some loss of pruning power.
func rqDBSky(db Interface, opt Options) (Result, error) {
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	attrs := allAttrs(c.m)
	me := make([]bool, len(attrs))
	for j, a := range attrs {
		me[j] = db.Cap(a) == hidden.RQ
	}
	w := newTreeWalker(c, nil, attrs, me, true)
	if p := c.newPool(); p != nil {
		defer p.Close()
		w.runOn(p)
		return c.result(p.Wait())
	}
	return c.result(w.run())
}
