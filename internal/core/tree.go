package core

import (
	"sync"

	"hiddensky/internal/engine"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// treeWalker is the one implementation of the paper's divide-and-conquer
// query tree: SQ-DB-SKY (Algorithm 1) and RQ-DB-SKY (Algorithm 2). Each
// node is a conjunctive query; a node that overflows branches into one
// child per branching attribute, appending "A_i < t[A_i]" for the node's
// branching tuple t. RQ mode additionally maintains the mutually-exclusive
// counterpart R(q) of each node (lower bounds from earlier branches) and
// the Seen set enabling early termination. One node visit serves three
// schedulers: the FIFO queue (SQ), preorder recursion (RQ) and pool tasks
// (parallel runs). The SQ K-skyband walk (band) and the session walk
// (ckpt) are configurations of the sequential SQ walk.
type treeWalker struct {
	c     *ctx
	base  query.Q // predicates appended to every issued query (cell phase)
	attrs []int   // branching attribute indices, in branch order
	me    []bool  // RQ mode: me[j] says attrs[j] supports ">=" and participates in R(q)
	rq    bool    // Algorithm 2 mode (Seen check + R(q)); false = Algorithm 1

	band       *bandCollector // answer sink and branch rule of sqBandSky (nil: skyline walk)
	incomplete bool           // a band walk met a node it could not branch on
	ckpt       *Session       // Session.Resume's checkpoint hook, run after every answer

	mu      sync.Mutex // guards seen/seenSet when sibling subtrees run in parallel
	seen    [][]int    // every tuple returned so far (RQ mode), oldest first
	seenSet tupleMap[struct{}]
}

// node is one query-tree node. ub[j] is the exclusive upper bound on
// attrs[j] accumulated from "<" predicates (domain.Hi+1 when unbounded;
// Plan rejects domains ending at MaxInt); lb[j] is the inclusive lower
// bound of R(q) accumulated from ">=" predicates (domain.Lo when
// unbounded). Only RQ mode reads lb: the SQ queue holds ub alone.
type node struct {
	ub []int
	lb []int
}

// newTreeWalker walks the tree over attrs below base. In RQ mode, R(q)
// bounds from below exactly the attributes whose interface is RQ.
func newTreeWalker(c *ctx, base query.Q, attrs []int, rqMode bool) *treeWalker {
	w := &treeWalker{c: c, base: base, attrs: attrs, rq: rqMode}
	if rqMode {
		w.me = make([]bool, len(attrs))
		for j, a := range attrs {
			w.me[j] = c.db.Cap(a) == hidden.RQ
		}
	}
	return w
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

// child is node n's j-th child for branching tuple b: it appends
// "A_j < b[A_j]" to q, and in RQ mode "A_i >= b[A_i]" for earlier
// branches i < j to R(q).
func (w *treeWalker) child(n node, b []int, j int) node {
	ub := append([]int(nil), n.ub...)
	if v := b[w.attrs[j]]; v < ub[j] {
		ub[j] = v
	}
	if !w.rq {
		return node{ub: ub, lb: n.lb}
	}
	lb := append([]int(nil), n.lb...)
	for i := 0; i < j; i++ {
		if w.me[i] {
			if v := b[w.attrs[i]]; v > lb[i] {
				lb[i] = v
			}
		}
	}
	return node{ub: ub, lb: lb}
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

// visit answers node n and returns the tuple its children branch on (nil:
// n is a leaf). It issues n's query q, or in RQ mode R(q) once a seen
// tuple matches q, and hands the answer to the walk's sink.
func (w *treeWalker) visit(n node) ([]int, error) {
	viaR := w.rq && w.anySeenMatches(n)
	var q query.Q
	if viaR {
		q = w.buildR(n)
	} else {
		q = w.buildQ(n)
	}
	res, err := w.c.issue(q)
	if err != nil {
		return nil, err
	}
	var b, lb []int
	if viaR {
		if len(res.Tuples) == 0 {
			return nil, nil // no undiscovered tuple below this subtree: abandon
		}
		b, lb = res.Tuples[0], n.lb
		if s := w.c.findDominator(b); s != nil {
			b = s
		}
	}
	if w.rq && w.c.pool != nil {
		w.c.noteOrigin(res.Tuples, lb)
	}
	w.noteSeen(res.Tuples)
	if w.band != nil {
		w.band.add(res.Tuples)
	} else {
		w.c.mergeAll(res.Tuples)
	}
	if !w.c.overflowed(res) {
		return nil, nil
	}
	if b == nil {
		b = w.branchTuple(res.Tuples)
	}
	return b, nil
}

// branchTuple picks the tuple an overflowing Q answer branches on: the
// top tuple, or in a band walk the first tuple with at least K-1
// dominators inside the answer. Those counts are exact for answered
// tuples: every dominator matches the (downward-closed) query and
// outranks its dominee, so it appears earlier in the same answer.
func (w *treeWalker) branchTuple(ts [][]int) []int {
	if w.band == nil {
		return ts[0]
	}
	for i, t := range ts {
		cnt := 0
		for _, u := range ts[:i] {
			if skyline.Dominates(u, t) {
				cnt++
			}
		}
		if cnt >= w.band.k-1 {
			return t
		}
	}
	w.incomplete = true // cannot branch without risking missed band tuples
	return nil
}

// seedBranch takes the root node's answer already in hand (the mixed
// algorithm's cell probe doubles as the cell tree's root query; its
// caller merged it) and returns the tuple the root branches on, or nil.
func (w *treeWalker) seedBranch(root hidden.Result) []int {
	w.noteSeen(root.Tuples)
	if !w.c.overflowed(root) {
		return nil
	}
	return root.Tuples[0]
}

// run traverses the whole tree sequentially: SQ mode uses the FIFO queue
// of Algorithm 1, RQ mode the depth-first preorder of Algorithm 2
// (required for the post-order mapping that defines R(q)). root, when
// non-nil, is the root node's answer already in hand.
func (w *treeWalker) run(root *hidden.Result) error {
	n := w.root()
	if root == nil {
		if w.rq {
			return w.walkRQ(n)
		}
		queue := [][]int{n.ub}
		return w.runQueue(&queue)
	}
	b := w.seedBranch(*root)
	if b == nil {
		return nil
	}
	if w.rq {
		return w.walkKids(n, b)
	}
	queue := w.pushKids(nil, n, b)
	return w.runQueue(&queue)
}

// runQueue is Algorithm 1's FIFO loop over *queue, which holds the
// pending nodes' upper bounds. A node leaves the queue only once its
// answer has arrived, so a stopped walk leaves it pending: the session
// walk's queue is Session.Pending.
func (w *treeWalker) runQueue(queue *[][]int) error {
	for len(*queue) > 0 {
		n := node{ub: (*queue)[0]}
		b, err := w.visit(n)
		if err != nil {
			return err
		}
		*queue = (*queue)[1:]
		if b != nil {
			*queue = w.pushKids(*queue, n, b)
		}
		if w.ckpt != nil {
			if err := w.ckpt.answered(w.c); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *treeWalker) pushKids(queue [][]int, n node, b []int) [][]int {
	for j := range w.attrs {
		queue = append(queue, w.child(n, b, j).ub)
	}
	return queue
}

// walkRQ is Algorithm 2's recursion: visit n, then its subtrees in
// preorder.
func (w *treeWalker) walkRQ(n node) error {
	b, err := w.visit(n)
	if err != nil || b == nil {
		return err
	}
	return w.walkKids(n, b)
}

func (w *treeWalker) walkKids(n node, b []int) error {
	for j := range w.attrs {
		if err := w.walkRQ(w.child(n, b, j)); err != nil {
			return err
		}
	}
	return nil
}

// runOn schedules the whole traversal as tasks on the bounded worker pool
// and returns immediately; the caller drains the pool with Wait. root is
// as for run. Sibling subtrees are independent branches of the
// divide-and-conquer cascade, so each becomes its own task. Correctness is
// schedule-independent: the R(q)-empty early termination is a ground-truth
// statement about the database (no tuple of q's region lies outside the
// sibling cover), and the branch-tuple corner cut only ever removes tuples
// dominated by an already-merged tuple — neither depends on which subtree
// finishes first. Query counts may differ from the sequential run (the
// Seen set fills in a different order) but the discovered skyline is the
// same set.
//
// A cancelled run is a different matter: an R(q) answer is skyline-safe
// only once every subtree before it in preorder has finished, which the
// sequential walk gets from its order and the parallel walk does not.
// RQ-mode nodes therefore stay registered with the ctx (openNode) until
// their task completes, and a partial result drops every tuple an
// unfinished node's region could still dominate (see ctx.result).
func (w *treeWalker) runOn(p *engine.Pool, root *hidden.Result) {
	n := w.root()
	if root == nil {
		w.spawn(p, n)
		return
	}
	if b := w.seedBranch(*root); b != nil {
		w.spawnKids(p, n, b)
	}
}

// spawn schedules node n's visit on the pool, each child as its own
// task. In RQ mode the node stays open with the ctx until its task
// completes: children are opened before their parent closes, so at any
// moment the open nodes' R(q) regions cover every skyline tuple not yet
// discovered.
func (w *treeWalker) spawn(p *engine.Pool, n node) {
	id := 0
	if w.rq {
		id = w.c.openNode(w.attrs, n.lb)
	}
	p.Spawn(func() error {
		b, err := w.visit(n)
		if err != nil {
			return err
		}
		if b != nil {
			w.spawnKids(p, n, b)
		}
		if id != 0 {
			w.c.closeNode(id)
		}
		return nil
	})
}

func (w *treeWalker) spawnKids(p *engine.Pool, n node, b []int) {
	for j := range w.attrs {
		w.spawn(p, w.child(n, b, j))
	}
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
func sqDBSky(db Interface, opt Options) (Result, error) { return treeDBSky(db, opt, false) }

// rqDBSky discovers the complete skyline through a two-ended-range (RQ)
// interface — the paper's Algorithm 2, which prunes subtrees whose
// mutually-exclusive counterpart R(q) proves empty. Attributes that only
// support one-ended ranges are handled by omitting their ">=" bounds from
// R(q), which keeps the traversal correct (R(q) only grows, so no subtree
// is abandoned wrongly) at some loss of pruning power.
func rqDBSky(db Interface, opt Options) (Result, error) { return treeDBSky(db, opt, true) }

// treeDBSky walks the whole tree over every attribute, on a worker pool
// when opt asks for parallelism.
func treeDBSky(db Interface, opt Options, rqMode bool) (Result, error) {
	db, opt = prepare(db, opt)
	c := newCtx(db, opt)
	w := newTreeWalker(c, nil, allAttrs(c.m), rqMode)
	if p := c.newPool(); p != nil {
		defer p.Close()
		w.runOn(p, nil)
		return c.result(p.Wait())
	}
	return c.result(w.run(nil))
}
