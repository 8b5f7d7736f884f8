package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden wire bodies under testdata/")

// The oracle types: the wire types without their methods, so
// encoding/json handles them by reflection.
type (
	plainTopKRequest  AnswerTopKRequest
	plainTopKResponse AnswerTopKResponse
)

func checkTopKDecode(t *testing.T, data []byte) {
	t.Helper()
	var wantReq plainTopKRequest
	var gotReq AnswerTopKRequest
	werr, gerr := json.Unmarshal(data, &wantReq), gotReq.UnmarshalJSON(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("request %q: encoding/json err=%v, codec err=%v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(gotReq, AnswerTopKRequest(wantReq)) {
		t.Fatalf("request %q:\n codec         %#v\n encoding/json %#v", data, gotReq, wantReq)
	}
	var wantResp plainTopKResponse
	var gotResp AnswerTopKResponse
	werr, gerr = json.Unmarshal(data, &wantResp), gotResp.UnmarshalJSON(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("response %q: encoding/json err=%v, codec err=%v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(gotResp, AnswerTopKResponse(wantResp)) {
		t.Fatalf("response %q:\n codec         %#v\n encoding/json %#v", data, gotResp, wantResp)
	}
}

// checkTopKEncode asserts that AppendJSON renders v exactly as
// json.Marshal renders its shadow value p, and fails exactly when it
// fails.
func checkTopKEncode(t *testing.T, v interface {
	AppendJSON([]byte) ([]byte, error)
}, p any) {
	t.Helper()
	want, werr := json.Marshal(p)
	got, gerr := v.AppendJSON(nil)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("encode %#v: encoding/json err=%v, codec err=%v", p, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("encode %#v:\n codec         %s\n encoding/json %s", p, got, want)
	}
}

// topkDecodeCases are bodies where a hand-written decoder is most
// likely to part from encoding/json.
var topkDecodeCases = []string{
	``, `null`, `{}`, `[]`, `1`,
	`{"store":"shop","weights":[1,2.5,0],"k":3}`,
	`{"store":"shop","weights":[1,1],"k":2,"normalized":true,"filter":[{"attr":0,"lo":1,"hi":5},{"attr":1}]}`,
	`{"filter":[{"attr":0,"lo":1}],"filter":[{"hi":2}]}`, `{"filter":[{"lo":1,"lo":null}]}`,
	`{"filter":[{"lo":1},{"lo":2}],"filter":[{}],"filter":[null,null]}`,
	`{"filter":[{"lo":"1"}]}`, `{"filter":[{"lo":1.5}]}`, `{"filter":[null]}`, `{"filter":null}`,
	`{"weights":[1e308,1e309]}`, `{"weights":[1e-400]}`, `{"weights":[-0]}`, `{"weights":[0.1e1,1E+2,1e-2]}`,
	`{"weights":[1,2,3],"weights":[7],"weights":[null,null]}`, `{"weights":[NaN]}`, `{"weights":[Infinity]}`,
	`{"k":"3"}`, `{"k":3.0}`, `{"k":true}`, `{"K":3,"k":4}`, "{\"\u212a\":5}", `{"band_K":2,"BAND_k":3}`,
	`{"normalized":1}`, `{"normalized":null}`, `{"store":null}`, `{"store":"a\u0000b"}`, `{"store":"\ud83d\ude00"}`,
	`{"exact":true,"tuples":[[1,2]],"scores":[1.5],"levels":[0]}`, `{"tuples":[[1,2]],"tuples":[[3]]}`,
	`{"scores":[1,"2"]}`, `{"levels":[1.5]}`, `{"levels":[],"levels":null}`,
	`{"store":"s"} `, `{"store":"s"}]`, `{"store":"s"}null`, `{"k":1,"k":}`, `{"k":1 "x":2}`,
}

func TestTopKCodecDecodeTable(t *testing.T) {
	for _, c := range topkDecodeCases {
		checkTopKDecode(t, []byte(c))
	}
}

func intp(v int) *int { return &v }

func TestTopKCodecEncodeTable(t *testing.T) {
	reqs := []AnswerTopKRequest{
		{},
		{Store: "shop", Weights: []float64{1, 0.5, 1e21, 1e-7, 123456789.125, -0.0}, K: 3},
		{Store: "<s&p>", Weights: []float64{}, Normalized: true, Filter: []AnswerRange{{Attr: 1, Lo: intp(-2)}, {Hi: intp(5)}}},
		{Weights: []float64{math.NaN()}},
		{Weights: []float64{1, math.Inf(-1)}},
		{Filter: []AnswerRange{}},
	}
	for _, r := range reqs {
		checkTopKEncode(t, r, plainTopKRequest(r))
	}
	resps := []AnswerTopKResponse{
		{},
		{Store: "shop", K: 2, Exact: true, BandK: 3, Tuples: [][]int{{1, 2}, {3, 4}}, Scores: []float64{3, 7.25}, Levels: []int{0, 1}},
		{Tuples: [][]int{nil, {}}, Scores: []float64{}, Levels: []int{}},
		{Scores: []float64{math.Inf(1)}},
		{Scores: []float64{5e-324, math.MaxFloat64, 1e20, 1e-6, 9.999999e-7}},
	}
	for _, r := range resps {
		checkTopKEncode(t, r, plainTopKResponse(r))
	}
}

// FuzzTopKCodec checks both /v1/answer/topk bodies against
// encoding/json: any bytes decode as json.Unmarshal decodes them, and
// every value that decodes — with the fuzzed float (NaN and ±Inf
// included) and string added — encodes as json.Marshal encodes it.
func FuzzTopKCodec(f *testing.F) {
	for _, c := range topkDecodeCases {
		f.Add([]byte(c), 1.5, "shop")
	}
	f.Add([]byte(`{}`), math.NaN(), "")
	f.Add([]byte(`{}`), math.Inf(1), "<&>")
	f.Add([]byte(`{}`), 1e-7, "\xff")
	f.Fuzz(func(t *testing.T, data []byte, x float64, s string) {
		checkTopKDecode(t, data)
		var req plainTopKRequest
		if json.Unmarshal(data, &req) == nil {
			req.Weights = append(req.Weights, x)
			req.Store += s
			checkTopKEncode(t, AnswerTopKRequest(req), req)
		}
		var resp plainTopKResponse
		if json.Unmarshal(data, &resp) == nil {
			resp.Scores = append(resp.Scores, x)
			resp.Store += s
			checkTopKEncode(t, AnswerTopKResponse(resp), resp)
		}
	})
}

// TestTopKGoldenBodies pins one request and one response body byte for
// byte (go test -run Golden -update rewrites them).
func TestTopKGoldenBodies(t *testing.T) {
	golden(t, "topk_request.json", AnswerTopKRequest{
		Store: "flights", Weights: []float64{1, 0.25, 3e-7}, K: 3, Normalized: true,
		Filter: []AnswerRange{{Attr: 0, Lo: intp(10), Hi: intp(200)}, {Attr: 2, Hi: intp(-1)}}})
	golden(t, "topk_response.json", AnswerTopKResponse{
		Store: "flights", K: 2, Exact: true, BandK: 4,
		Tuples: [][]int{{12, 3, 40}, {7, 9, 41}}, Scores: []float64{27.5, 1e21}, Levels: []int{0, 1}})
}

func golden[T interface {
	AppendJSON([]byte) ([]byte, error)
}](t *testing.T, name string, v T) {
	t.Helper()
	got, err := v.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("%s drifted:\n got  %s\n want %s", name, got, want)
	}
	back := reflect.New(reflect.TypeOf(v))
	if err := back.Interface().(json.Unmarshaler).UnmarshalJSON(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Elem().Interface(), any(v)) {
		t.Fatalf("%s does not decode back: %#v", name, back.Elem().Interface())
	}
}
