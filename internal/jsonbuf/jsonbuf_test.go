package jsonbuf

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWriteMatchesStreamingEncoder(t *testing.T) {
	v := map[string]any{"tuples": [][]int{{1, 2}, {3, 4}}, "exact": true}
	rec := httptest.NewRecorder()
	Write(rec, 201, v)
	if rec.Code != 201 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	want, _ := json.Marshal(v)
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Fatalf("body %q, want %q + newline", got, want)
	}
}

func TestWriteEncodableErrorAnswers500Envelope(t *testing.T) {
	rec := httptest.NewRecorder()
	Write(rec, 200, math.NaN()) // JSON cannot encode NaN
	if rec.Code != 500 {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"] == "" {
		t.Fatalf("expected an error envelope, got %q (%v)", rec.Body.String(), err)
	}
}

func TestEncodeAndWriteStatic(t *testing.T) {
	body, err := Encode(map[string]int{"k": 5})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	WriteStatic(rec, 200, body)
	if rec.Body.String() != "{\"k\":5}\n" {
		t.Fatalf("body %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if _, err := Encode(math.Inf(1)); err == nil {
		t.Fatal("Encode accepted an unencodable value")
	}
}

func TestWriteReusesPooledBuffers(t *testing.T) {
	v := map[string]any{"x": []int{1, 2, 3}}
	rec := httptest.NewRecorder()
	Write(rec, 200, v) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		rec := httptest.NewRecorder()
		Write(rec, 200, v)
	})
	// The recorder, header map and encoder dominate; the point is that
	// the body buffer itself no longer grows per call. Guard against
	// regression to per-call buffer growth (which costs tens of allocs
	// for any realistically sized response).
	if allocs > 15 {
		t.Fatalf("Write allocates %v per op — pooled buffer regressed", allocs)
	}
}

// appender is a minimal Appender for the Write/Marshal/Encode paths.
type appender struct{ v []float64 }

func (a appender) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"v":`...)
	dst, err := AppendFloats(dst, a.v)
	return append(dst, '}'), err
}

func TestAppenderPathsMatchEncodingJSON(t *testing.T) {
	a := appender{v: []float64{1, 2.5e-7}}
	rec := httptest.NewRecorder()
	Write(rec, 200, a)
	if got := rec.Body.String(); got != `{"v":[1,2.5e-7]}`+"\n" || rec.Code != 200 {
		t.Fatalf("Write: %d %q", rec.Code, got)
	}
	if b, err := Marshal(a); err != nil || string(b) != `{"v":[1,2.5e-7]}` {
		t.Fatalf("Marshal: %q %v", b, err)
	}
	if b, err := Encode(a); err != nil || string(b) != `{"v":[1,2.5e-7]}`+"\n" {
		t.Fatalf("Encode: %q %v", b, err)
	}
	rec = httptest.NewRecorder()
	Write(rec, 200, appender{v: []float64{math.Inf(1)}})
	var env map[string]string
	if rec.Code != 500 || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env["error"] != "encoding response: json: unsupported value: +Inf" {
		t.Fatalf("unencodable Appender: %d %q", rec.Code, rec.Body.String())
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 123456789012345680000,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, -2.5e-300, math.NaN(), math.Inf(-1)} {
		want, werr := json.Marshal(f)
		got, gerr := AppendFloat(nil, f)
		if (werr == nil) != (gerr == nil) || (werr == nil && string(got) != string(want)) {
			t.Errorf("%v: AppendFloat %q (%v), json.Marshal %q (%v)", f, got, gerr, want, werr)
		}
	}
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "<a&b>", "\x00\x1f\x7f", "é", "  ", "\xff\xfe", "\b\f\n\r\t"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("%q: AppendString %s, json.Marshal %s", s, got, want)
		}
	}
}

func TestReadJSONRejectsTrailingBytes(t *testing.T) {
	var v map[string]int
	if err := ReadJSON(strings.NewReader("{\"a\":1}\n "), &v); err != nil || v["a"] != 1 {
		t.Fatalf("clean body: %v %v", v, err)
	}
	if err := ReadJSON(strings.NewReader(`{"a":1}{}`), &v); err == nil {
		t.Fatal("trailing value accepted")
	}
}

// TestScannerAlloc: the scanner itself never allocates, ASCII escapes
// included; a decode pays only for the decoded value (here one presized
// int slice and one two-byte string).
func TestScannerAlloc(t *testing.T) {
	data := []byte(` {"xs": [1, 2, 3, -4], "skip": {"a": ["b\n\"", null, true, 1.5e3]}, "s": "\u003c="} `)
	var xs []int
	var str string
	allocs := testing.AllocsPerRun(200, func() {
		xs, str = nil, ""
		s := NewScanner(data)
		for o := s.Object(); o.Next(); {
			switch {
			case o.Key("xs"):
				s.Ints(&xs)
			case o.Key("s"):
				s.Str(&str)
			default:
				s.Skip()
			}
		}
		if err := s.End(); err != nil {
			t.Fatal(err)
		}
	})
	if len(xs) != 4 || cap(xs) != 4 || xs[3] != -4 || str != "<=" {
		t.Fatalf("decoded %v (cap %d), %q", xs, cap(xs), str)
	}
	if allocs != 2 {
		t.Fatalf("%v allocs/op, want 2", allocs)
	}
}
