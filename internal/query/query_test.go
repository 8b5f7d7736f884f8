package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{LT: "<", LE: "<=", EQ: "=", GE: ">=", GT: ">"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%v: got %q want %q", int(op), op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("%q should be valid", want)
		}
	}
	if Op(99).Valid() {
		t.Error("Op(99) should be invalid")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("invalid op should print its value")
	}
}

func TestPredicateMatches(t *testing.T) {
	for _, tc := range []struct {
		p    Predicate
		v    int
		want bool
	}{
		{Predicate{0, LT, 5}, 4, true},
		{Predicate{0, LT, 5}, 5, false},
		{Predicate{0, LE, 5}, 5, true},
		{Predicate{0, LE, 5}, 6, false},
		{Predicate{0, EQ, 5}, 5, true},
		{Predicate{0, EQ, 5}, 4, false},
		{Predicate{0, GE, 5}, 5, true},
		{Predicate{0, GE, 5}, 4, false},
		{Predicate{0, GT, 5}, 6, true},
		{Predicate{0, GT, 5}, 5, false},
	} {
		if got := tc.p.Matches(tc.v); got != tc.want {
			t.Errorf("%v matches %d: got %v", tc.p, tc.v, got)
		}
	}
	if (Predicate{0, Op(99), 5}).Matches(5) {
		t.Error("invalid op should match nothing")
	}
}

func TestQMatches(t *testing.T) {
	q := Q{{Attr: 0, Op: LT, Value: 5}, {Attr: 1, Op: GE, Value: 2}}
	if !q.Matches([]int{4, 2}) {
		t.Error("4,2 should match")
	}
	if q.Matches([]int{5, 2}) || q.Matches([]int{4, 1}) {
		t.Error("bound violations should not match")
	}
	if (Q{{Attr: 3, Op: LT, Value: 1}}).Matches([]int{0, 0}) {
		t.Error("out-of-range attribute should not match")
	}
	if !(Q(nil)).Matches([]int{1, 2, 3}) {
		t.Error("SELECT * matches everything")
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	q := Q{{Attr: 0, Op: LT, Value: 5}}
	q2 := q.With(Predicate{Attr: 1, Op: EQ, Value: 3})
	q3 := q.With(Predicate{Attr: 2, Op: GT, Value: 1})
	if len(q) != 1 || len(q2) != 2 || len(q3) != 2 {
		t.Fatalf("lengths: %d %d %d", len(q), len(q2), len(q3))
	}
	if q2[1].Attr != 1 || q3[1].Attr != 2 {
		t.Error("appended predicates interfered (shared backing array)")
	}
	q4 := q.WithAll(Predicate{Attr: 1, Op: EQ, Value: 3}, Predicate{Attr: 2, Op: EQ, Value: 4})
	if len(q4) != 3 || len(q) != 1 {
		t.Error("WithAll mutated receiver")
	}
}

func TestString(t *testing.T) {
	if got := (Q(nil)).String(); got != "SELECT *" {
		t.Errorf("nil query prints %q", got)
	}
	q := Q{{Attr: 0, Op: LT, Value: 5}, {Attr: 2, Op: GE, Value: 1}}
	want := "WHERE A0 < 5 AND A2 >= 1"
	if got := q.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestIntervals(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Empty() || iv.Len() != 4 || !iv.Contains(2) || !iv.Contains(5) || iv.Contains(6) {
		t.Errorf("interval basics broken: %+v", iv)
	}
	empty := Interval{3, 2}
	if !empty.Empty() || empty.Len() != 0 {
		t.Error("empty interval misreported")
	}
	got := iv.Intersect(Interval{4, 9})
	if got != (Interval{4, 5}) {
		t.Errorf("intersect: %+v", got)
	}
	if !iv.Intersect(Interval{6, 9}).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	// Widths past MaxInt saturate instead of wrapping negative.
	for _, c := range []struct {
		iv   Interval
		want int
	}{
		{Interval{math.MinInt, -1}, math.MaxInt},
		{Interval{math.MinInt + 1, -1}, math.MaxInt},
		{Interval{math.MinInt + 2, -1}, math.MaxInt - 1},
		{Interval{0, math.MaxInt}, math.MaxInt},
		{Interval{-1, math.MaxInt}, math.MaxInt},
		{Interval{math.MinInt, math.MaxInt}, math.MaxInt},
		{Interval{math.MaxInt, math.MaxInt}, 1},
	} {
		if got := c.iv.Len(); got != c.want {
			t.Errorf("%+v.Len() = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	domains := []Interval{{0, 9}, {0, 9}, {0, 9}}
	q := Q{
		{Attr: 0, Op: LT, Value: 5},
		{Attr: 0, Op: GE, Value: 2},
		{Attr: 1, Op: EQ, Value: 7},
		{Attr: 2, Op: LE, Value: 8},
		{Attr: 2, Op: GT, Value: 3},
		{Attr: 0, Op: LT, Value: 4}, // tighter duplicate
	}
	b := q.Canonicalize(domains)
	if b.Dims[0] != (Interval{2, 3}) {
		t.Errorf("dim0: %+v", b.Dims[0])
	}
	if b.Dims[1] != (Interval{7, 7}) {
		t.Errorf("dim1: %+v", b.Dims[1])
	}
	if b.Dims[2] != (Interval{4, 8}) {
		t.Errorf("dim2: %+v", b.Dims[2])
	}
	if b.Empty() {
		t.Error("box should be non-empty")
	}
	if !(Q{{Attr: 0, Op: LT, Value: 0}}).Canonicalize(domains).Empty() {
		t.Error("A0 < 0 should be empty over [0,9]")
	}
}

// Property: a query and its canonical box agree on every tuple.
func TestCanonicalizeEquivalentToMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	domains := []Interval{{0, 7}, {0, 7}, {0, 7}}
	ops := []Op{LT, LE, EQ, GE, GT}
	for trial := 0; trial < 2000; trial++ {
		var q Q
		for p := 0; p < rng.Intn(5); p++ {
			q = append(q, Predicate{
				Attr:  rng.Intn(3),
				Op:    ops[rng.Intn(len(ops))],
				Value: rng.Intn(8),
			})
		}
		box := q.Canonicalize(domains)
		tuple := []int{rng.Intn(8), rng.Intn(8), rng.Intn(8)}
		if q.Matches(tuple) != box.Contains(tuple) {
			t.Fatalf("q=%v tuple=%v: Matches=%v Contains=%v", q, tuple, q.Matches(tuple), box.Contains(tuple))
		}
	}
}

// Property: Normalize preserves semantics and uses at most two predicates
// per attribute.
func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	domains := []Interval{{0, 7}, {0, 7}}
	ops := []Op{LT, LE, EQ, GE, GT}
	for trial := 0; trial < 1000; trial++ {
		var q Q
		for p := 0; p < rng.Intn(6); p++ {
			q = append(q, Predicate{Attr: rng.Intn(2), Op: ops[rng.Intn(len(ops))], Value: rng.Intn(8)})
		}
		norm := q.Normalize(domains)
		perAttr := map[int]int{}
		for _, p := range norm {
			perAttr[p.Attr]++
		}
		for a, c := range perAttr {
			if c > 2 {
				t.Fatalf("attribute %d has %d predicates after normalize: %v", a, c, norm)
			}
		}
		for probe := 0; probe < 30; probe++ {
			tuple := []int{rng.Intn(8), rng.Intn(8)}
			if q.Matches(tuple) != norm.Matches(tuple) {
				t.Fatalf("normalize changed semantics: %v vs %v on %v", q, norm, tuple)
			}
		}
	}
}

func TestUsesOnly(t *testing.T) {
	q := Q{{Attr: 0, Op: LT, Value: 3}, {Attr: 1, Op: EQ, Value: 2}}
	if !q.UsesOnly(LT, EQ) {
		t.Error("LT+EQ query rejected")
	}
	if q.UsesOnly(EQ) {
		t.Error("LT predicate should fail EQ-only check")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := func(attr uint8, val int16) bool {
		q := Q{{Attr: int(attr % 4), Op: LE, Value: int(val)}}
		c := q.Clone()
		c[0].Value++
		return q[0].Value == int(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Q(nil).Clone() != nil {
		t.Error("nil clone should stay nil")
	}
}

func TestParse(t *testing.T) {
	q, err := Parse("A0<5, a2>=3 , A1 = 7")
	if err != nil {
		t.Fatal(err)
	}
	want := Q{
		{Attr: 0, Op: LT, Value: 5},
		{Attr: 2, Op: GE, Value: 3},
		{Attr: 1, Op: EQ, Value: 7},
	}
	if len(q) != len(want) {
		t.Fatalf("parsed %v", q)
	}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("predicate %d: %v, want %v", i, q[i], want[i])
		}
	}
	if q2, err := Parse("A0<=5"); err != nil || q2[0].Op != LE {
		t.Fatalf("<= parsing: %v %v", q2, err)
	}
	if q2, err := Parse("A0==5"); err != nil || q2[0].Op != EQ {
		t.Fatalf("== parsing: %v %v", q2, err)
	}
	if q2, err := Parse("A0>9"); err != nil || q2[0].Op != GT {
		t.Fatalf("> parsing: %v %v", q2, err)
	}
	if empty, err := Parse("  "); err != nil || empty != nil {
		t.Fatalf("blank parse: %v %v", empty, err)
	}
	for _, bad := range []string{"A0", "B1<2", "A-1<2", "A0<x", "A0<", "<5", ","} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestMustParse(t *testing.T) {
	if len(MustParse("A0<3")) != 1 {
		t.Fatal("MustParse broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on junk")
		}
	}()
	MustParse("junk")
}

// Property: every predicate round-trips through its printed form.
func TestParsePrintRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ops := []Op{LT, LE, EQ, GE, GT}
	for trial := 0; trial < 500; trial++ {
		var q Q
		for i := 0; i < 1+rng.Intn(4); i++ {
			q = append(q, Predicate{Attr: rng.Intn(6), Op: ops[rng.Intn(5)], Value: rng.Intn(200) - 100})
		}
		parts := make([]string, len(q))
		for i, p := range q {
			parts[i] = fmt.Sprintf("A%d%s%d", p.Attr, p.Op, p.Value)
		}
		back, err := Parse(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("round trip of %v: %v", q, err)
		}
		for i := range q {
			if back[i] != q[i] {
				t.Fatalf("round trip changed %v to %v", q[i], back[i])
			}
		}
	}
}

func TestBoxFingerprint(t *testing.T) {
	doms := []Interval{{0, 99}, {-5, 5}}
	fp := func(q Q) uint64 { return q.Canonicalize(doms).Fingerprint() }
	// Canonical twins agree; any changed bound disagrees.
	if fp(Q{{Attr: 0, Op: LT, Value: 10}}) != fp(Q{{Attr: 0, Op: LE, Value: 9}, {Attr: 0, Op: LE, Value: 50}}) {
		t.Fatal("canonical twins fingerprint differently")
	}
	seen := map[uint64]Q{}
	for _, q := range []Q{
		nil,
		{{Attr: 0, Op: LE, Value: 9}},
		{{Attr: 0, Op: LE, Value: 8}},
		{{Attr: 0, Op: GE, Value: 9}},
		{{Attr: 1, Op: LE, Value: 0}},
		{{Attr: 1, Op: LE, Value: -1}},
		{{Attr: 0, Op: EQ, Value: 3}, {Attr: 1, Op: EQ, Value: 3}},
	} {
		h := fp(q)
		if prev, dup := seen[h]; dup {
			t.Fatalf("%v and %v share fingerprint %d", prev, q, h)
		}
		seen[h] = q
	}
	// No random seed: the value is fixed across processes, so shard
	// choice (and what a bounded cache evicts) repeats run to run.
	if got := fp(Q{{Attr: 0, Op: LT, Value: 10}}); got != 11527581104382668982 {
		t.Fatalf("fingerprint of A0 < 10 = %d", got)
	}
}
