package jsonbuf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error.
const maxDepth = 10000

// Scanner decodes one JSON value from a byte slice in steps the caller
// drives: Object, Array and Slice iterate, Int, Float, Bool and Str
// decode a scalar into a target, Skip steps over a value of any shape.
// Each step first skips whitespace. The first error sticks: every later
// step is a no-op, iterations end, and End reports it. Decoded values
// never alias the input.
type Scanner struct {
	data       []byte
	pos, depth int
	err        error
}

// NewScanner returns a scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// End returns the first error met, or an error when anything but
// whitespace follows the decoded value.
func (s *Scanner) End() error {
	if s.space() && s.pos < len(s.data) {
		s.syntax("after top-level value")
	}
	return s.err
}

// space skips whitespace and reports whether decoding may go on.
func (s *Scanner) space() bool {
	for s.pos < len(s.data) && strings.IndexByte(" \t\n\r", s.data[s.pos]) >= 0 {
		s.pos++
	}
	return s.err == nil
}

// peek returns the byte at the cursor, 0 at the end of the input.
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// syntax records a syntax error at the cursor.
func (s *Scanner) syntax(context string) {
	switch {
	case s.err != nil:
	case s.pos >= len(s.data):
		s.err = fmt.Errorf("jsonbuf: unexpected end of JSON input")
	default:
		s.err = fmt.Errorf("jsonbuf: invalid character %q %s (offset %d)", s.data[s.pos], context, s.pos)
	}
}

// mismatch records a value at the cursor whose kind does not fit the
// target (a string where an int belongs): a failure, like
// encoding/json's UnmarshalTypeError.
func (s *Scanner) mismatch(want string) {
	if c := s.peek(); c == 0 || strings.IndexByte(`{["tf-0123456789`, c) < 0 {
		s.syntax("looking for beginning of value")
	} else if s.err == nil {
		s.err = fmt.Errorf("jsonbuf: value at offset %d does not decode into %s", s.pos, want)
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal consumes lit (null, true or false) at the cursor.
func (s *Scanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(lit)) {
		s.syntax("in literal " + lit)
		return false
	}
	s.pos += len(lit)
	return true
}

// Null consumes a null when one is next and reports whether it did.
func (s *Scanner) Null() bool {
	return s.space() && s.peek() == 'n' && s.literal("null")
}

// number consumes a number token under JSON's grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns it, nil
// on a syntax error. What follows it is checked by the next step.
func (s *Scanner) number() []byte {
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	if s.peek() == '0' {
		s.pos++
	} else if !s.digits() {
		return nil
	}
	if s.peek() == '.' {
		s.pos++
		if !s.digits() {
			return nil
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !s.digits() {
			return nil
		}
	}
	return s.data[start:s.pos]
}

// digits consumes a run of at least one decimal digit.
func (s *Scanner) digits() bool {
	if !isDigit(s.peek()) {
		s.syntax("in numeric literal")
		return false
	}
	for isDigit(s.peek()) {
		s.pos++
	}
	return true
}

// str consumes a string token and returns its value: a view of the
// input when the token has no escapes, else the value decoded onto dst.
// Printable ASCII with ASCII escapes is decoded here; a token with
// control or non-ASCII bytes, or a \u escape beyond ASCII, is validated
// and decoded by encoding/json.
func (s *Scanner) str(dst []byte) []byte {
	d := s.data
	start, end, plain, ascii := s.pos+1, s.pos+1, true, true
	for ; end < len(d) && d[end] != '"'; end++ {
		if c := d[end]; c == '\\' {
			plain = false
			end++
		} else if c < 0x20 || c >= 0x80 {
			plain, ascii = false, false
		}
	}
	if end >= len(d) {
		s.pos = len(d)
		s.syntax("in string literal")
		return nil
	}
	s.pos = end + 1
	if plain {
		return d[start:end]
	}
	if ascii {
		if b, ok := unescapeASCII(dst, d[start:end]); ok {
			return b
		}
	}
	var v string
	if err := json.Unmarshal(d[start-1:end+1], &v); err != nil {
		s.err = fmt.Errorf("jsonbuf: bad string literal at offset %d: %v", start-1, err)
		return nil
	}
	return append(dst, v...)
}

// unescapeASCII appends the value of a string body of printable ASCII
// to dst; false when an escape is invalid or a \u escape leaves ASCII.
// Every backslash in body is followed by a byte (see str).
func unescapeASCII(dst, body []byte) ([]byte, bool) {
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			dst = append(dst, body[i])
			continue
		}
		i++
		switch e := body[i]; e {
		case '"', '\\', '/':
			dst = append(dst, e)
		case 'b', 'f', 'n', 'r', 't':
			dst = append(dst, "\b\f\n\r\t"[strings.IndexByte("bfnrt", e)])
		case 'u':
			if i+5 > len(body) {
				return nil, false
			}
			r, err := strconv.ParseUint(string(body[i+1:i+5]), 16, 16)
			if err != nil || r >= 0x80 {
				return nil, false
			}
			dst = append(dst, byte(r))
			i += 4
		default:
			return nil, false
		}
	}
	return dst, true
}

// seq is the iteration state Object and Array share.
type seq struct {
	s    *Scanner
	n    int
	open bool
}

// begin consumes the opening bracket of a container of the given kind,
// minding the nesting limit. A null is consumed and iterates nothing;
// any other kind of value is an error.
func (s *Scanner) begin(open byte, kind string) seq {
	q := seq{s: s}
	if !s.space() {
		return q
	}
	switch s.peek() {
	case open:
		s.pos++
		if s.depth++; s.depth > maxDepth {
			s.err = fmt.Errorf("jsonbuf: exceeded max depth (offset %d)", s.pos)
		} else {
			q.open = true
		}
	case 'n':
		s.literal("null")
	default:
		s.mismatch(kind)
	}
	return q
}

// next consumes the separator before the next item; false at the
// closing bracket or on an error.
func (q *seq) next(close byte) bool {
	s := q.s
	if !q.open || !s.space() {
		return false
	}
	switch c := s.peek(); {
	case c == close:
		s.pos++
		s.depth--
		q.open = false
		return false
	case q.n == 0:
	case c == ',':
		s.pos++
	default:
		s.syntax("after object member or array element")
		return false
	}
	q.n++
	return true
}

// Object iterates the members of a JSON object:
//
//	for o := s.Object(); o.Next(); {
//		switch {
//		case o.Key("name"):
//			s.Str(&v.Name)
//		default:
//			s.Skip()
//		}
//	}
//
// Every member Next reports must be consumed by exactly one step. A null
// iterates nothing, which leaves a struct target unchanged, as
// encoding/json does.
type Object struct {
	seq
	key []byte
}

// Object starts iterating an object.
func (s *Scanner) Object() Object { return Object{seq: s.begin('{', "object")} }

// Next advances to the next member, consuming its key and colon; false
// at the end of the object or on an error.
func (o *Object) Next() bool {
	s := o.s
	if !o.next('}') {
		return false
	}
	if !s.space() || s.peek() != '"' {
		s.syntax("looking for beginning of object key string")
		return false
	}
	o.key = s.str(nil)
	if !s.space() || s.peek() != ':' {
		s.syntax("after object key")
		return false
	}
	s.pos++
	return true
}

// Key reports whether the current member's key matches name under
// encoding/json's case folding: bytes.EqualFold, so "ſ" matches "s" and
// the Kelvin sign "k".
func (o *Object) Key(name string) bool { return bytes.EqualFold(o.key, []byte(name)) }

// Array iterates the elements of a JSON array; every element Next
// reports must be consumed by exactly one step. A null iterates nothing.
type Array struct{ seq }

// Array starts iterating an array.
func (s *Scanner) Array() Array { return Array{s.begin('[', "array")} }

// Next advances to the next element; false at the end of the array or
// on an error.
func (a *Array) Next() bool { return a.next(']') }

// num consumes a number or a null and returns the number's token: nil
// for a null, which leaves a scalar target unchanged, and on an error.
func (s *Scanner) num(want string) []byte {
	if !s.space() {
		return nil
	}
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
	case c == '-' || isDigit(c):
		return s.number()
	default:
		s.mismatch(want)
	}
	return nil
}

// Int decodes a number into *p; it must be an integer in int's range
// (strconv.ParseInt's rule, as encoding/json applies it). A null leaves
// *p unchanged.
func (s *Scanner) Int(p *int) {
	if tok := s.num("int"); tok != nil {
		v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			s.err = fmt.Errorf("jsonbuf: number %s does not decode into int", tok)
			return
		}
		*p = int(v)
	}
}

// Float decodes a number into *p (strconv.ParseFloat's rule: a value
// beyond float64's range is an error). A null leaves *p unchanged.
func (s *Scanner) Float(p *float64) {
	if tok := s.num("float64"); tok != nil {
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			s.err = fmt.Errorf("jsonbuf: number %s does not decode into float64", tok)
			return
		}
		*p = v
	}
}

// Bool decodes true or false into *p. A null leaves *p unchanged.
func (s *Scanner) Bool(p *bool) {
	if !s.space() {
		return
	}
	switch s.peek() {
	case 'n':
		s.literal("null")
	case 't':
		if s.literal("true") {
			*p = true
		}
	case 'f':
		if s.literal("false") {
			*p = false
		}
	default:
		s.mismatch("bool")
	}
}

// Str decodes a string into *p. A null leaves *p unchanged.
func (s *Scanner) Str(p *string) {
	if !s.space() {
		return
	}
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '"':
		var tmp [32]byte
		if v := s.str(tmp[:0]); s.err == nil {
			*p = string(v)
		}
	default:
		s.mismatch("string")
	}
}

// IntPtr decodes a number into **p, allocating the int when *p is nil
// and writing through it otherwise. A null sets *p to nil.
func (s *Scanner) IntPtr(p **int) {
	if s.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(int)
	}
	s.Int(*p)
}

// Elems iterates a JSON array into a slice under encoding/json's rules
// for slices: null sets the slice to nil and [] to an empty non-nil
// slice; elements decode into the slice's existing storage, so element
// i keeps whatever a null or a partial object leaves of it — including
// storage past its length and within its capacity — and the slice is
// cut to the decoded length at the end:
//
//	for e := jsonbuf.Slice(s, &v.Items); e.Next(); {
//		decodeItem(s, e.Elem())
//	}
type Elems[T any] struct {
	arr Array
	p   *[]T // nil once the slice is final
	n   int
}

// Slice starts decoding an array into *p.
func Slice[T any](s *Scanner, p *[]T) Elems[T] {
	if s.Null() {
		*p = nil
		return Elems[T]{}
	}
	return Elems[T]{arr: s.Array(), p: p}
}

// Next makes room for the next element; false at the end of the array
// or on an error. A slice without capacity is allocated once, sized by
// count.
func (e *Elems[T]) Next() bool {
	if e.arr.Next() {
		v := *e.p
		switch {
		case e.n < cap(v):
			v = v[:e.n+1]
		case e.n == 0:
			v = make([]T, 1, e.arr.s.count())
		default:
			var zero T
			v = append(v[:e.n], zero)
		}
		*e.p = v
		e.n++
		return true
	}
	if e.p != nil && e.arr.s.err == nil && e.n == 0 {
		*e.p = []T{}
	}
	e.p = nil
	return false
}

// Elem returns the element Next made room for.
func (e *Elems[T]) Elem() *T { return &(*e.p)[e.n-1] }

// count returns how many elements the array whose first element starts
// at the cursor holds, by looking ahead for its closing bracket. It only
// sizes an allocation: the decode itself checks the syntax.
func (s *Scanner) count() int {
	n, depth, d := 1, 0, s.data
	for i := s.pos; i < len(d); i++ {
		switch d[i] {
		case '"':
			for i++; i < len(d) && d[i] != '"'; i++ {
				if d[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// Ints decodes an array of ints into *p (see Elems).
func (s *Scanner) Ints(p *[]int) {
	for e := Slice(s, p); e.Next(); {
		s.Int(e.Elem())
	}
}

// IntRows decodes an array of int arrays into *p (see Elems).
func (s *Scanner) IntRows(p *[][]int) {
	for e := Slice(s, p); e.Next(); {
		s.Ints(e.Elem())
	}
}

// Floats decodes an array of numbers into *p (see Elems).
func (s *Scanner) Floats(p *[]float64) {
	for e := Slice(s, p); e.Next(); {
		s.Float(e.Elem())
	}
}

// Strs decodes an array of strings into *p (see Elems).
func (s *Scanner) Strs(p *[]string) {
	for e := Slice(s, p); e.Next(); {
		s.Str(e.Elem())
	}
}

// Skip consumes one value of any shape, checking its syntax.
func (s *Scanner) Skip() {
	if !s.space() {
		return
	}
	switch c := s.peek(); {
	case c == '{':
		for o := s.Object(); o.Next(); {
			s.Skip()
		}
	case c == '[':
		for a := s.Array(); a.Next(); {
			s.Skip()
		}
	case c == '"':
		var tmp [32]byte
		s.str(tmp[:0])
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	case c == '-' || isDigit(c):
		s.number()
	default:
		s.syntax("looking for beginning of value")
	}
}
