package core

import (
	"fmt"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// fig2DB builds the paper's running example (Figure 2): four 3-attribute
// tuples t1..t4 served through a top-1 interface ranked by attribute sum.
func fig2DB(t *testing.T, caps []hidden.Capability) *hidden.DB {
	t.Helper()
	data := [][]int{
		{5, 1, 9}, // t1
		{4, 4, 8}, // t2
		{1, 3, 7}, // t3
		{3, 2, 3}, // t4
	}
	return mkDB(t, data, caps, 1, hidden.SumRank{})
}

// children expands node n on branching tuple b into all its children.
func (w *treeWalker) children(n node, b []int) []node {
	kids := make([]node, len(w.attrs))
	for j := range kids {
		kids[j] = w.child(n, b, j)
	}
	return kids
}

func TestWalkerRootBounds(t *testing.T) {
	db := fig2DB(t, capsAll(3, hidden.SQ))
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), false)
	root := w.root()
	// Domains: A0 in [1,5], A1 in [1,4], A2 in [3,9]; ub is exclusive.
	wantUB := []int{6, 5, 10}
	wantLB := []int{1, 1, 3}
	for j := range wantUB {
		if root.ub[j] != wantUB[j] || root.lb[j] != wantLB[j] {
			t.Fatalf("root bounds %v/%v, want %v/%v", root.ub, root.lb, wantUB, wantLB)
		}
	}
	if q := w.buildQ(root); len(q) != 0 {
		t.Fatalf("root query should be SELECT *, got %v", q)
	}
}

func TestWalkerChildrenMatchPaperExample(t *testing.T) {
	// Figure 3: the root of the SQ tree returns t4 = (3,2,3) under the sum
	// ranking; its three branches append A0<3, A1<2, A2<3.
	db := fig2DB(t, capsAll(3, hidden.SQ))
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), false)
	root := w.root()
	res, err := db.Query(nil)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Tuples[0]
	if fmt.Sprint(top) != fmt.Sprint([]int{3, 2, 3}) {
		t.Fatalf("sum ranking should surface t4, got %v", top)
	}
	kids := w.children(root, top)
	if len(kids) != 3 {
		t.Fatalf("%d children", len(kids))
	}
	wantQ := []string{
		"WHERE A0 < 3",
		"WHERE A1 < 2",
		"WHERE A2 < 3",
	}
	for j, kid := range kids {
		if got := w.buildQ(kid).String(); got != wantQ[j] {
			t.Errorf("child %d query %q, want %q", j, got, wantQ[j])
		}
	}
}

func TestWalkerMutuallyExclusiveRQ(t *testing.T) {
	// In RQ mode, branch j of a node excludes branches i < j via ">="
	// bounds; verify R(q) renders the paper's Figure 5 construction.
	db := fig2DB(t, capsAll(3, hidden.RQ))
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), true)
	root := w.root()
	kids := w.children(root, []int{3, 2, 3})
	wantR := []string{
		"WHERE A0 < 3",
		"WHERE A1 < 2 AND A0 >= 3",
		"WHERE A2 < 3 AND A0 >= 3 AND A1 >= 2",
	}
	for j, kid := range kids {
		if got := w.buildR(kid).String(); got != wantR[j] {
			t.Errorf("child %d R(q) %q, want %q", j, got, wantR[j])
		}
	}
	// The three R(q) spaces are pairwise disjoint and cover q's space
	// minus the dominated region: check on the full value grid.
	for a0 := 1; a0 <= 5; a0++ {
		for a1 := 1; a1 <= 4; a1++ {
			for a2 := 3; a2 <= 9; a2++ {
				tuple := []int{a0, a1, a2}
				matches := 0
				for _, kid := range kids {
					if w.buildR(kid).Matches(tuple) {
						matches++
					}
				}
				if matches > 1 {
					t.Fatalf("tuple %v matched %d mutually exclusive branches", tuple, matches)
				}
				// A tuple not dominated-or-equal to the branching tuple
				// must be covered by exactly one branch.
				dominated := a0 >= 3 && a1 >= 2 && a2 >= 3
				if !dominated && matches != 1 {
					t.Fatalf("tuple %v covered by %d branches, want 1", tuple, matches)
				}
			}
		}
	}
}

func TestWalkerPartialMEOnlyUsesGEWhereAllowed(t *testing.T) {
	// Attribute 1 is SQ: its ">=" bound must be omitted from R(q).
	db := mkDB(t, [][]int{{1, 1, 1}, {2, 2, 2}},
		[]hidden.Capability{hidden.RQ, hidden.SQ, hidden.RQ}, 1, hidden.SumRank{})
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), true)
	kids := w.children(w.root(), []int{1, 1, 1})
	r := w.buildR(kids[2]) // branch on A2: should carry A0 >= 1 but not A1 >= 1
	for _, p := range r {
		if p.Attr == 1 && (p.Op == query.GE || p.Op == query.GT) {
			t.Fatalf("R(q) uses >= on an SQ attribute: %v", r)
		}
	}
}

func TestWalkerSeenMatching(t *testing.T) {
	db := fig2DB(t, capsAll(3, hidden.RQ))
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), true)
	root := w.root()
	if w.anySeenMatches(root) {
		t.Fatal("empty seen set matched")
	}
	w.noteSeen([][]int{{3, 2, 3}})
	if !w.anySeenMatches(root) {
		t.Fatal("seen tuple should match SELECT *")
	}
	kids := w.children(root, []int{3, 2, 3})
	for j, kid := range kids {
		if w.anySeenMatches(kid) {
			t.Fatalf("branch %d excludes the branching tuple yet matched", j)
		}
	}
	// Duplicates are not re-recorded.
	w.noteSeen([][]int{{3, 2, 3}, {3, 2, 3}})
	if len(w.seen) != 1 {
		t.Fatalf("seen has %d entries, want 1", len(w.seen))
	}
}

func TestChildrenWithDominatorOutsideQ(t *testing.T) {
	// Branching on a tuple b whose values exceed the node's bounds must
	// clamp, not widen, the child bounds.
	db := fig2DB(t, capsAll(3, hidden.RQ))
	c := newCtx(db, Options{})
	w := newTreeWalker(c, nil, allAttrs(3), true)
	n := node{ub: []int{3, 3, 3}, lb: []int{1, 1, 3}}
	kids := w.children(n, []int{5, 1, 9})
	if kids[0].ub[0] != 3 { // min(3, 5) = 3
		t.Fatalf("child widened ub: %v", kids[0].ub)
	}
	if kids[1].ub[1] != 1 { // min(3, 1) = 1
		t.Fatalf("child did not tighten ub: %v", kids[1].ub)
	}
}

// tupleMap keys tuples by value: equal values share an entry whichever
// slice holds them, and tuples whose hashes collide stay apart.
func TestTupleMap(t *testing.T) {
	var s tupleMap[int]
	if s.get([]int{1}) != nil {
		t.Fatal("empty map has an entry")
	}
	if !s.add([]int{1, -2, 30}, 1) || s.add([]int{1, -2, 30}, 2) {
		t.Fatal("add must insert a new tuple once")
	}
	if p := s.get([]int{1, -2, 30}); p == nil || *p != 1 {
		t.Fatalf("get = %v, want the first value", p)
	}
	for _, u := range [][]int{{1, 2, 30}, {12, 3}, {1, 23}, {0}, {}, {1, -2}} {
		if s.get(u) != nil || !s.add(u, len(u)) {
			t.Fatalf("%v taken for a stored tuple", u)
		}
	}
	// Tuples that differ only in their last value: a collision-prone
	// shape for a hash over ints.
	for v := range 2000 {
		s.add([]int{7, v}, v)
	}
	for v := range 2000 {
		if p := s.get([]int{7, v}); p == nil || *p != v {
			t.Fatalf("{7, %d} lost", v)
		}
	}
	*s.get([]int{12, 3}) = 99
	if *s.get([]int{12, 3}) != 99 || *s.get([]int{1, 23}) != 2 {
		t.Fatal("a value written through get reached the wrong entry")
	}
	// Tuples whose hashes collide share a chain and are told apart by
	// value: chain {4} in behind {3}, as if the two hashed alike.
	h := hashTuple([]int{3})
	s.add([]int{3}, 3)
	s.entries = append(s.entries, tupleEntry[int]{t: []int{4}, v: 4, next: s.head[h]})
	s.head[h] = int32(len(s.entries))
	if p := s.get([]int{3}); p == nil || *p != 3 {
		t.Fatal("{3} lost behind a colliding entry")
	}
	if s.add([]int{3}, 5) {
		t.Fatal("{3} added twice behind a colliding entry")
	}
}

func TestCtxMergeDedup(t *testing.T) {
	db := fig2DB(t, capsAll(3, hidden.SQ))
	c := newCtx(db, Options{Trace: true})
	c.merge([]int{3, 2, 3})
	c.merge([]int{3, 2, 3}) // duplicate: no new trace event
	if len(c.trace) != 1 {
		t.Fatalf("%d trace events, want 1", len(c.trace))
	}
	c.merge([]int{1, 3, 7}) // incomparable: kept
	if len(c.sky) != 2 {
		t.Fatalf("sky %v", c.sky)
	}
	c.merge([]int{5, 9, 9}) // dominated: rejected, no trace
	if len(c.trace) != 2 || len(c.sky) != 2 {
		t.Fatalf("dominated merge recorded: %v / %v", c.trace, c.sky)
	}
}

// TestProvablyEmpty: under SkipProvablyEmpty, issue answers a box that
// is empty over the advertised domains itself, empty and uncounted.
func TestProvablyEmpty(t *testing.T) {
	db := fig2DB(t, capsAll(3, hidden.SQ))
	c := newCtx(db, Options{SkipProvablyEmpty: true})
	res, err := c.issue(query.Q{{Attr: 0, Op: query.LT, Value: 1}})
	if err != nil || len(res.Tuples) != 0 || c.queries != 0 || db.QueriesIssued() != 0 {
		t.Errorf("A0 < 1 is empty over domain [1,5]: %v, %d tuples, %d counted, %d issued",
			err, len(res.Tuples), c.queries, db.QueriesIssued())
	}
	if _, err := c.issue(query.Q{{Attr: 0, Op: query.LT, Value: 2}}); err != nil || c.queries != 1 || db.QueriesIssued() != 1 {
		t.Errorf("A0 < 2 is satisfiable: %v, %d counted, %d issued", err, c.queries, db.QueriesIssued())
	}
}
