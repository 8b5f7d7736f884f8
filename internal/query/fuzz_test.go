package query

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzCanonicalizeEquivalence drives random predicate soups through
// Canonicalize and checks box semantics against direct matching.
func FuzzCanonicalizeEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 3, 2, 4, 5}, []byte{1, 2, 3})
	f.Add([]byte{}, []byte{0, 0})
	f.Add([]byte{9, 200, 7}, []byte{255})
	f.Fuzz(func(t *testing.T, predBytes, tupleBytes []byte) {
		if len(tupleBytes) == 0 || len(tupleBytes) > 6 {
			return
		}
		m := len(tupleBytes)
		domains := make([]Interval, m)
		for i := range domains {
			domains[i] = Interval{Lo: 0, Hi: 15}
		}
		tuple := make([]int, m)
		for i, b := range tupleBytes {
			tuple[i] = int(b % 16)
		}
		var q Q
		for i := 0; i+2 < len(predBytes) && len(q) < 8; i += 3 {
			q = append(q, Predicate{
				Attr:  int(predBytes[i]) % m,
				Op:    Op(predBytes[i+1] % 5),
				Value: int(predBytes[i+2] % 16),
			})
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
