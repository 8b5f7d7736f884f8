// Package query defines the conjunctive-predicate query model used by both
// the hidden-database simulator and the skyline-discovery algorithms.
//
// A query is a conjunction of per-attribute predicates over integer-coded
// ordinal attributes. Throughout the module, smaller values rank higher
// (are preferred), matching the paper's convention that vi ranks higher
// than vj if vi < vj.
package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a comparison operator usable in a predicate.
type Op uint8

// Supported comparison operators.
const (
	LT Op = iota // attribute <  value
	LE           // attribute <= value
	EQ           // attribute =  value
	GE           // attribute >= value
	GT           // attribute >  value
)

// String returns the SQL-ish spelling of the operator.
func (op Op) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	case GT:
		return ">"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Valid reports whether op is one of the defined operators.
func (op Op) Valid() bool { return op <= GT }

// Predicate is a single comparison on one ranking attribute.
type Predicate struct {
	Attr  int // attribute index in [0, m)
	Op    Op
	Value int
}

// String renders the predicate as "A3 <= 42".
func (p Predicate) String() string {
	return fmt.Sprintf("A%d %s %d", p.Attr, p.Op, p.Value)
}

// Matches reports whether attribute value v satisfies the predicate.
func (p Predicate) Matches(v int) bool {
	switch p.Op {
	case LT:
		return v < p.Value
	case LE:
		return v <= p.Value
	case EQ:
		return v == p.Value
	case GE:
		return v >= p.Value
	case GT:
		return v > p.Value
	}
	return false
}

// Q is a conjunctive query: all predicates must hold. The zero value (nil)
// is the unrestricted SELECT * query.
type Q []Predicate

// Matches reports whether the tuple (a slice of attribute values indexed by
// attribute) satisfies every predicate in the query.
func (q Q) Matches(tuple []int) bool {
	for _, p := range q {
		if p.Attr < 0 || p.Attr >= len(tuple) {
			return false
		}
		if !p.Matches(tuple[p.Attr]) {
			return false
		}
	}
	return true
}

// Validate reports the first predicate of q that an interface over m
// attributes cannot evaluate: an attribute outside [0, m) or an
// undefined operator. Boxes and cache keys derived from a query that
// fails it mean nothing (CanonicalizeInto skips such predicates).
func (q Q) Validate(m int) error {
	for _, p := range q {
		if p.Attr < 0 || p.Attr >= m {
			return fmt.Errorf("attribute A%d out of range", p.Attr)
		}
		if !p.Op.Valid() {
			return errors.New("bad operator")
		}
	}
	return nil
}

// With returns a new query that appends predicate p to q, leaving q intact.
func (q Q) With(p Predicate) Q {
	out := make(Q, len(q), len(q)+1)
	copy(out, q)
	return append(out, p)
}

// WithAll returns a new query appending every predicate in ps.
func (q Q) WithAll(ps ...Predicate) Q {
	out := make(Q, len(q), len(q)+len(ps))
	copy(out, q)
	return append(out, ps...)
}

// Clone returns a deep copy of the query.
func (q Q) Clone() Q {
	if q == nil {
		return nil
	}
	out := make(Q, len(q))
	copy(out, q)
	return out
}

// String renders the query as a WHERE clause, or "SELECT *" when empty.
func (q Q) String() string {
	if len(q) == 0 {
		return "SELECT *"
	}
	parts := make([]string, len(q))
	for i, p := range q {
		parts[i] = p.String()
	}
	return "WHERE " + strings.Join(parts, " AND ")
}

// Interval is a closed integer interval [Lo, Hi]. An empty interval has
// Lo > Hi.
type Interval struct {
	Lo, Hi int
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integers in the interval (0 when empty),
// saturating at math.MaxInt: an interval wider than that (one from 0 to
// MaxInt, or all of int) has more integers than an int can count. The
// difference Hi-Lo is exact in uint, whatever the signs of the ends.
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	if n := uint(iv.Hi-iv.Lo) + 1; n != 0 && n <= math.MaxInt {
		return int(n)
	}
	return math.MaxInt
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v int) bool { return v >= iv.Lo && v <= iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{lo, hi}
}

// Box is the per-attribute interval representation of a canonical
// conjunctive query: attribute i must fall in Dims[i].
type Box struct {
	Dims []Interval
}

// NewBox returns the unrestricted box over m attributes with the given
// per-attribute domains.
func NewBox(domains []Interval) Box {
	dims := make([]Interval, len(domains))
	copy(dims, domains)
	return Box{Dims: dims}
}

// Empty reports whether any dimension of the box is empty.
func (b Box) Empty() bool {
	for _, iv := range b.Dims {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Contains reports whether the tuple lies inside the box.
func (b Box) Contains(tuple []int) bool {
	if len(tuple) < len(b.Dims) {
		return false
	}
	for i, iv := range b.Dims {
		if !iv.Contains(tuple[i]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the box.
func (b Box) Clone() Box {
	dims := make([]Interval, len(b.Dims))
	copy(dims, b.Dims)
	return Box{Dims: dims}
}

// Canonicalize reduces a conjunctive query to a box given the attribute
// domains: multiple predicates on the same attribute intersect. The box is
// exactly equivalent to the query for integer-valued attributes.
func (q Q) Canonicalize(domains []Interval) Box {
	return q.CanonicalizeInto(nil, domains)
}

// CanonicalizeInto is Canonicalize writing the box dimensions into dst
// (grown only beyond its capacity), so hot paths that canonicalize per
// lookup — the query cache's key derivation — can reuse one scratch
// slice instead of allocating a box every time. The returned box aliases
// dst.
func (q Q) CanonicalizeInto(dst []Interval, domains []Interval) Box {
	if cap(dst) < len(domains) {
		dst = make([]Interval, len(domains))
	} else {
		dst = dst[:len(domains)]
	}
	copy(dst, domains)
	b := Box{Dims: dst}
	for _, p := range q {
		if p.Attr < 0 || p.Attr >= len(b.Dims) {
			continue
		}
		b.Dims[p.Attr] = b.Dims[p.Attr].Intersect(p.interval())
	}
	return b
}

// interval returns the values that satisfy p, saturating at the ends of
// int instead of wrapping: "< MinInt" and "> MaxInt" give the empty
// interval {MaxInt, MinInt}, which stays empty under any Intersect. An
// invalid operator constrains nothing.
func (p Predicate) interval() Interval {
	switch p.Op {
	case LT:
		if p.Value == math.MinInt {
			return Interval{math.MaxInt, math.MinInt}
		}
		return Interval{math.MinInt, p.Value - 1}
	case LE:
		return Interval{math.MinInt, p.Value}
	case EQ:
		return Interval{p.Value, p.Value}
	case GE:
		return Interval{p.Value, math.MaxInt}
	case GT:
		if p.Value == math.MaxInt {
			return Interval{math.MaxInt, math.MinInt}
		}
		return Interval{p.Value + 1, math.MaxInt}
	}
	return Interval{math.MinInt, math.MaxInt}
}

// Fingerprint hashes the box's bounds into a deterministic 64-bit
// identity: FNV-1a over the (Lo, Hi) words, then a murmur3 finalizer so
// every input bit reaches the low bits (the query cache masks them to
// pick a shard). It is the "key" attribute of both the cache's
// qcache.lookup spans and the web client's web.query spans, so a trace
// reader can tie an upstream query to the lookup that missed. Equal
// boxes always agree; distinct boxes collide only by chance, so callers
// that serve answers by it must still compare the full box.
func (b Box) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, iv := range b.Dims {
		h = (h ^ uint64(int64(iv.Lo))) * prime64
		h = (h ^ uint64(int64(iv.Hi))) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Normalize returns an equivalent query with at most one lower and one
// upper bound predicate per attribute (LE/GE form), sorted by attribute.
// Equality constraints become a pair LE/GE with the same value.
func (q Q) Normalize(domains []Interval) Q {
	b := q.Canonicalize(domains)
	var out Q
	for i, iv := range b.Dims {
		full := domains[i]
		if iv.Lo == iv.Hi {
			out = append(out, Predicate{Attr: i, Op: EQ, Value: iv.Lo})
			continue
		}
		if iv.Lo > full.Lo {
			out = append(out, Predicate{Attr: i, Op: GE, Value: iv.Lo})
		}
		if iv.Hi < full.Hi {
			out = append(out, Predicate{Attr: i, Op: LE, Value: iv.Hi})
		}
	}
	sort.Slice(out, func(a, c int) bool {
		if out[a].Attr != out[c].Attr {
			return out[a].Attr < out[c].Attr
		}
		return out[a].Op < out[c].Op
	})
	return out
}

// UsesOnly reports whether every predicate's operator is in allowed.
func (q Q) UsesOnly(allowed ...Op) bool {
	for _, p := range q {
		ok := false
		for _, a := range allowed {
			if p.Op == a {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
