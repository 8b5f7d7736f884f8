// Package jsonbuf is the shared JSON layer of the HTTP serving layers
// (internal/web, internal/service): a pooled response writer, a pooled
// whole-body reader, and a small reflection-free codec for the hot wire
// bodies.
//
// The codec has two halves. Scanner decodes one JSON value from a byte
// slice in caller-driven steps (object and array iteration, int, float,
// bool, string, null and skip-value), and the Append* helpers encode.
// A wire type writes its AppendJSON and DecodeJSON with these steps;
// both follow encoding/json exactly:
//
//   - encoding is byte-identical to json.Marshal (HTML-safe string
//     escaping, ES6 float formatting, null for nil slices), and fails
//     where json.Marshal fails (NaN, ±Inf);
//   - decoding succeeds exactly when json.Unmarshal into the same
//     method-less struct succeeds, and then yields the same value:
//     case-insensitive keys with the last duplicate winning, unknown
//     keys skipped, null leaving scalars alone and clearing slices and
//     pointers, slices decoded into their existing storage, strict
//     number grammar, integral in-range ints, and nothing but
//     whitespace after the value.
//
// Printable ASCII strings, ASCII escapes included, are coded here; a
// string with control or non-ASCII bytes (or a \u escape beyond ASCII)
// is handed to encoding/json for that one token, which keeps UTF-8
// validation, U+FFFD replacement and the U+2028/U+2029 escapes exact
// without a second implementation of them.
//
// Write encodes into a pooled buffer instead of streaming straight to
// the ResponseWriter. The body's growth allocations are then paid once
// per pool entry instead of once per request, and the body is complete
// before the status line is written, so an encoding failure can still
// answer a well-formed 500 envelope instead of a truncated 200. Static
// bodies (a database's /v1/meta never changes) skip encoding entirely
// via WriteStatic.
package jsonbuf

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Appender is implemented by the wire types with a reflection-free
// encoder: AppendJSON appends exactly what json.Marshal would return.
// Write and Marshal use it in place of encoding/json.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// maxPooledBuf caps the capacity of buffers returned to the pool: one
// pathological multi-megabyte body must not pin its buffer for the
// life of the process.
const maxPooledBuf = 1 << 20

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := pool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// Release hands a buffer from ReadBody back to the pool. Decoded values
// never alias it, so it may be released as soon as decoding is done.
func Release(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		pool.Put(buf)
	}
}

// ReadBody reads r to EOF into a pooled buffer; Release it once done.
func ReadBody(r io.Reader) (*bytes.Buffer, error) {
	buf := getBuf()
	if _, err := buf.ReadFrom(r); err != nil {
		Release(buf)
		return nil, err
	}
	return buf, nil
}

// ReadJSON reads r to EOF and decodes the whole body into v, through
// v's UnmarshalJSON when it has one and json.Unmarshal otherwise. Unlike
// json.Decoder, bytes after the value other than whitespace are an
// error.
func ReadJSON(r io.Reader, v any) error {
	buf, err := ReadBody(r)
	if err != nil {
		return err
	}
	defer Release(buf)
	if u, ok := v.(json.Unmarshaler); ok {
		return u.UnmarshalJSON(buf.Bytes())
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// Marshal is json.Marshal, through v's AppendJSON when it has one (into
// a pooled buffer, so the result is the one allocation).
func Marshal(v any) ([]byte, error) {
	a, ok := v.(Appender)
	if !ok {
		return json.Marshal(v)
	}
	buf := getBuf()
	defer Release(buf)
	b, err := a.AppendJSON(buf.AvailableBuffer())
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// encode appends v's JSON and a newline to buf — the framing of
// json.Encoder.Encode.
func encode(buf *bytes.Buffer, v any) error {
	a, ok := v.(Appender)
	if !ok {
		return json.NewEncoder(buf).Encode(v)
	}
	b, err := a.AppendJSON(buf.AvailableBuffer())
	if err != nil {
		return err
	}
	buf.Write(append(b, '\n'))
	return nil
}

// Write encodes v as JSON and writes it with the given status. The
// encoding buffer is pooled; the response is identical to
// json.NewEncoder(w).Encode(v) on the success path (including the
// trailing newline). An Appender is encoded by its AppendJSON.
func Write(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	if err := encode(buf, v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding response: " + err.Error()})
	}
	WriteStatic(w, status, buf.Bytes())
	Release(buf)
}

// WriteStatic writes a pre-encoded JSON body (see Encode) — zero
// per-request encoding work for immutable responses.
func WriteStatic(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// Encode renders v once for WriteStatic, with the same framing Write
// produces (trailing newline included).
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := encode(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
