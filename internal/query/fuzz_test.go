package query

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzCanonicalizeEquivalence drives random predicate soups through
// Canonicalize and checks box semantics against direct matching over the
// whole int range, where "< MinInt" and "> MaxInt" must give an empty box
// rather than wrap. Predicates are 2 bytes (attribute, operator) and a
// fuzzInt value; the tuple is up to 6 fuzzInt values.
func FuzzCanonicalizeEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 14, 2, 4, 22}, []byte{6, 10, 14})
	f.Add([]byte{}, []byte{2, 2})
	f.Add([]byte{9, 200, 7, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{255})
	f.Add([]byte{0, 0, 0}, []byte{2}) // A0 < MinInt
	f.Add([]byte{0, 4, 4}, []byte{2}) // A0 > MaxInt
	f.Fuzz(func(t *testing.T, predBytes, tupleBytes []byte) {
		var tuple []int
		for len(tupleBytes) > 0 && len(tuple) < 6 {
			var v int
			v, tupleBytes = fuzzInt(tupleBytes)
			tuple = append(tuple, v)
		}
		m := len(tuple)
		if m == 0 {
			return
		}
		domains := make([]Interval, m)
		for i := range domains {
			domains[i] = Interval{Lo: math.MinInt, Hi: math.MaxInt}
		}
		var q Q
		for len(predBytes) > 2 && len(q) < 8 {
			p := Predicate{Attr: int(predBytes[0]) % m, Op: Op(predBytes[1] % 5)}
			p.Value, predBytes = fuzzInt(predBytes[2:])
			q = append(q, p)
		}
		box := q.Canonicalize(domains)
		if q.Matches(tuple) != box.Contains(tuple) {
			t.Fatalf("q=%v tuple=%v: Matches=%v box=%v", q, tuple, q.Matches(tuple), box)
		}
		norm := q.Normalize(domains)
		if norm.Matches(tuple) != q.Matches(tuple) {
			t.Fatalf("normalize changed semantics: %v vs %v on %v", q, norm, tuple)
		}
	})
}

// fuzzInt decodes one int from b and returns the rest. Its selector byte
// picks, by its value mod 4: MinInt, MaxInt or one of their two nearest
// neighbours (0 and 1, so half of all selectors land on an edge), a value
// in 0..15 (2), or an arbitrary int from the next 8 bytes (3).
func fuzzInt(b []byte) (int, []byte) {
	s, b := b[0], b[1:]
	switch s % 4 {
	case 0, 1:
		edges := [...]int{math.MinInt, math.MaxInt, math.MinInt + 1, math.MaxInt - 1, math.MinInt + 2, math.MaxInt - 2}
		return edges[int(s/4)%len(edges)], b
	case 2:
		return int(s/4) % 16, b
	}
	var buf [8]byte
	n := copy(buf[:], b)
	return int(binary.LittleEndian.Uint64(buf[:])), b[n:]
}

// FuzzParse: Parse never panics, every operator it yields is Valid, and
// the predicates' String forms joined by commas parse back to an equal
// query. Seeds: testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		parts := make([]string, len(q))
		for i, p := range q {
			if !p.Op.Valid() {
				t.Fatalf("Parse(%q) yielded invalid operator %v", s, p.Op)
			}
			parts[i] = p.String()
		}
		joined := strings.Join(parts, ",")
		back, err := Parse(joined)
		if err != nil || !reflect.DeepEqual(back, q) {
			t.Fatalf("Parse(%q) = %v; its rendering %q parses to %v (err %v)", s, q, joined, back, err)
		}
	})
}
