package web

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden wire bodies under testdata/")

// The oracle types: the wire types without their methods, so
// encoding/json handles them by reflection.
type (
	plainSearchRequest  SearchRequest
	plainSearchResponse SearchResponse
)

// checkDecode asserts that UnmarshalJSON accepts data exactly when
// json.Unmarshal into the method-less shadow type P does, with a
// DeepEqual result.
func checkDecode[T any, P any](t *testing.T, data []byte) {
	t.Helper()
	var want P
	werr := json.Unmarshal(data, &want)
	var got T
	gerr := any(&got).(json.Unmarshaler).UnmarshalJSON(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("decode %q: encoding/json err=%v, codec err=%v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(any(got), reflect.ValueOf(want).Convert(reflect.TypeOf(got)).Interface()) {
		t.Fatalf("decode %q:\n codec         %#v\n encoding/json %#v", data, got, want)
	}
}

// checkEncode asserts that AppendJSON renders v exactly as json.Marshal
// renders its shadow value p, and fails exactly when it fails.
func checkEncode(t *testing.T, v interface {
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

// searchDecodeCases are bodies where a hand-written decoder is most
// likely to part from encoding/json.
var searchDecodeCases = []string{
	``, ` `, `null`, ` null `, `{}`, `[]`, `5`, `"x"`, `true`,
	`{"preds":[]}`, `{"preds":null}`, `{"preds":[null]}`, `{"preds":{}}`,
	`{"preds":[{"attr":1,"op":"<","value":3}]}`,
	`{"PREDS":[{"ATTR":1,"Op":"<=","vAlUe":-3}]}`,
	`{"preds":[{"attr":1}],"preds":[{"value":2}]}`,              // last duplicate wins, into the old element
	`{"preds":[{"attr":1},{"attr":2}],"preds":[{"value":2}]}`,   // truncated
	`{"preds":[{"attr":1},{"attr":2}],"preds":[],"preds":[{}]}`, // [] drops storage
	`{"preds":[{"attr":1},{"attr":2}],"preds":[{}],"preds":[null,null]}`,
	`{"preds":[{"attr":1.0}]}`, `{"preds":[{"attr":1e2}]}`, `{"preds":[{"attr":-0}]}`,
	`{"preds":[{"attr":9223372036854775807}]}`, `{"preds":[{"attr":9223372036854775808}]}`,
	`{"preds":[{"attr":-9223372036854775808}]}`, `{"preds":[{"attr":-9223372036854775809}]}`,
	`{"preds":[{"attr":01}]}`, `{"preds":[{"attr":+1}]}`, `{"preds":[{"attr":.5}]}`,
	`{"preds":[{"attr":0x1p1}]}`, `{"preds":[{"attr":1.}]}`, `{"preds":[{"attr":1e}]}`, `{"preds":[{"attr":-}]}`,
	`{"preds":[{"attr":"1"}]}`, `{"preds":[{"op":1}]}`, `{"preds":[{"op":null,"attr":null}]}`,
	`{"preds":[{"op":"\u003c"}]}`, `{"preds":[{"op":"\ud800"}]}`, `{"preds":[{"op":"\x"}]}`,
	"{\"preds\":[{\"op\":\"\xff\"}]}", "{\"preds\":[{\"op\":\"a\tb\"}]}", `{"preds":[{"op":"é"}]}`,
	`{"pr\u0065ds":[{"attr":4}]}`, "{\"pred\u017f\":[{\"attr\":4}]}", `{"preds":[{"attr":4}],"x":[1,{"y":null},"z",true,false,-1.5e3]}`,
	`{"preds":[]} `, `{"preds":[]}x`, `{"preds":[]}{}`, `{"preds":[],}`, `{"preds":[1,]}`, `{,}`, `{"a"}`, `{"a":}`,
	`{"preds":[{"attr":1}]`, `{"preds":[{"attr":1}`, `{"x":tru}`, `{"x":nul}`, `{"x":[}`, `{"x":"\u00"}`,
	"\t{\n\"preds\"\r:\t[ ]\n}\n",
}

var searchResponseCases = []string{
	`{"tuples":[[1,2],[3,4]],"overflow":true}`, `{"tuples":[],"overflow":false}`, `{"tuples":null}`,
	`{"tuples":[null,[1]]}`, `{"tuples":[[1,2,3]],"tuples":[[9]]}`, `{"tuples":[[1,2,3],[4]],"tuples":[[null,null,null]]}`,
	`{"overflow":null}`, `{"overflow":1}`, `{"overflow":"true"}`, `{"Overflow":true,"OVERFLOW":false}`,
	`{"tuples":[[1]],"filters":[["a","b"],null,[]]}`, `{"filters":[["<&>"]]}`, `{"filters":[[1]]}`,
	`{"tuples":[[1.5]]}`, `{"tuples":[[1e400]]}`, `{"tuples":[["1"]]}`, `{"tuples":{}}`,
}

func TestSearchCodecDecodeTable(t *testing.T) {
	for _, c := range searchDecodeCases {
		checkDecode[SearchRequest, plainSearchRequest](t, []byte(c))
		checkDecode[SearchResponse, plainSearchResponse](t, []byte(c))
	}
	for _, c := range searchResponseCases {
		checkDecode[SearchRequest, plainSearchRequest](t, []byte(c))
		checkDecode[SearchResponse, plainSearchResponse](t, []byte(c))
	}
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, c := range []string{`{"x":` + deep + `}`, `{"x":` + deep[1:len(deep)-1] + `}`} {
		checkDecode[SearchRequest, plainSearchRequest](t, []byte(c))
	}
}

func TestSearchCodecEncodeTable(t *testing.T) {
	reqs := []SearchRequest{
		{},
		{Preds: []WirePredicate{}},
		{Preds: []WirePredicate{{Attr: 1, Op: "<=", Value: -7}, {Attr: 0, Op: ">", Value: 1 << 62}}},
		{Preds: []WirePredicate{{Op: "<"}, {Op: "&"}, {Op: "\u2028"}, {Op: "\xff"}, {Op: "\"\\\b\f\n\r\t\x01"}}},
	}
	for _, r := range reqs {
		checkEncode(t, r, plainSearchRequest(r))
	}
	resps := []SearchResponse{
		{},
		{Tuples: [][]int{}, Overflow: true},
		{Tuples: [][]int{{1, 2}, nil, {}}, Filters: [][]string{{"a", "<b>"}, nil}},
		{Tuples: [][]int{{-1}}, Filters: [][]string{}},
	}
	for _, r := range resps {
		checkEncode(t, r, plainSearchResponse(r))
	}
}

// FuzzSearchCodec checks both search bodies against encoding/json: any
// bytes decode as json.Unmarshal decodes them, and every value that
// decodes (with op and a filter cell taken from the fuzzed string)
// encodes as json.Marshal encodes it.
func FuzzSearchCodec(f *testing.F) {
	for _, c := range append(searchDecodeCases, searchResponseCases...) {
		f.Add([]byte(c), "<=")
	}
	f.Fuzz(func(t *testing.T, data []byte, s string) {
		checkDecode[SearchRequest, plainSearchRequest](t, data)
		checkDecode[SearchResponse, plainSearchResponse](t, data)
		var req plainSearchRequest
		if json.Unmarshal(data, &req) == nil {
			req.Preds = append(req.Preds, WirePredicate{Op: s})
			checkEncode(t, SearchRequest(req), req)
		}
		var resp plainSearchResponse
		if json.Unmarshal(data, &resp) == nil {
			resp.Filters = append(resp.Filters, []string{s})
			checkEncode(t, SearchResponse(resp), resp)
		}
	})
}

// TestSearchGoldenBodies pins one request and one response body byte
// for byte, so a codec change that shifts the wire cannot pass
// unnoticed (go test -run Golden -update rewrites them).
func TestSearchGoldenBodies(t *testing.T) {
	golden(t, "search_request.json", SearchRequest{Preds: []WirePredicate{
		{Attr: 0, Op: "<", Value: 12}, {Attr: 2, Op: ">=", Value: -3}, {Attr: 1, Op: "=", Value: 7}}})
	golden(t, "search_response.json", SearchResponse{
		Tuples: [][]int{{1, 40, 7}, {3, 12, 9}}, Overflow: true,
		Filters: [][]string{{"UA", "<ORD>"}, {"AA & co", "SFO"}}})
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
