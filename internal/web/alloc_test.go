package web

import "testing"

// TestWireCodecAlloc pins the codec's allocations per search body:
// encoding into a reused buffer allocates nothing, and decoding
// allocates only the decoded value's own memory, each slice sized once
// (a request with three predicates: the predicate slice and the one
// op string longer than a byte; a response with three 3-int tuples:
// the row slice and one array per row).
func TestWireCodecAlloc(t *testing.T) {
	req := SearchRequest{Preds: []WirePredicate{{Attr: 0, Op: "<", Value: 12}, {Attr: 2, Op: ">=", Value: -3}, {Attr: 1, Op: "=", Value: 7}}}
	resp := SearchResponse{Tuples: [][]int{{1, 40, 7}, {3, 12, 9}, {5, 5, 5}}, Overflow: true}
	reqBody, _ := req.AppendJSON(nil)
	respBody, _ := resp.AppendJSON(nil)
	buf := make([]byte, 0, 1024)
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"encode request", 0, func() { buf, _ = req.AppendJSON(buf[:0]) }},
		{"encode response", 0, func() { buf, _ = resp.AppendJSON(buf[:0]) }},
		{"decode request", 2, func() {
			var r SearchRequest
			_ = r.UnmarshalJSON(reqBody)
		}},
		{"decode response", 4, func() {
			var r SearchResponse
			_ = r.UnmarshalJSON(respBody)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
