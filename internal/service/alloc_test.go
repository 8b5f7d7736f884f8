package service

import "testing"

// TestWireCodecAlloc pins the codec's allocations per /v1/answer/topk
// body: encoding into a reused buffer allocates nothing, and decoding
// allocates only the decoded value's own memory, each slice sized once
// (a filtered request: the store name, the weight slice, the filter
// slice and its two bounds; a K=3 response over 3 attributes: the
// store name, the row slice, one array per row, the scores and the
// levels).
func TestWireCodecAlloc(t *testing.T) {
	lo, hi := 10, 200
	req := AnswerTopKRequest{Store: "flights", Weights: []float64{1, 0.25, 3e-7}, K: 3,
		Filter: []AnswerRange{{Attr: 0, Lo: &lo, Hi: &hi}}}
	resp := AnswerTopKResponse{Store: "flights", K: 3, Exact: true, BandK: 4,
		Tuples: [][]int{{12, 3, 40}, {7, 9, 41}, {1, 50, 2}}, Scores: []float64{27.5, 31.25, 52}, Levels: []int{0, 1, 1}}
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
		{"decode request", 5, func() {
			var r AnswerTopKRequest
			_ = r.UnmarshalJSON(reqBody)
		}},
		{"decode response", 7, func() {
			var r AnswerTopKResponse
			_ = r.UnmarshalJSON(respBody)
		}},
	} {
		if got := testing.AllocsPerRun(200, c.run); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
