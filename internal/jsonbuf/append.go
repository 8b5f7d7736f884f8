package jsonbuf

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendString appends s as a JSON string, escaped as json.Marshal
// escapes it. Printable ASCII is escaped here ('"' and '\\' with a
// backslash, the HTML-sensitive '<', '>' and '&' as \u003c, \u003e and
// \u0026); a string with control or non-ASCII bytes is rendered by
// encoding/json.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '<', '>', '&':
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

const hex = "0123456789abcdef"

// AppendInt appends v as a JSON number.
func AppendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// AppendFloat appends f as json.Marshal renders a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude with a
// one-digit negative exponent unpadded (1e-07 becomes 1e-7). NaN and
// ±Inf fail with json.Marshal's error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if err := finite(f); err != nil {
		return dst, err
	}
	return appendFloat(dst, f), nil
}

func finite(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return nil
}

func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendArray appends v as a JSON array of elem's renderings, or null
// when v is nil.
func AppendArray[T any](dst []byte, v []T, elem func([]byte, T) []byte) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, x)
	}
	return append(dst, ']')
}

// AppendInts appends an int slice (null when nil).
func AppendInts(dst []byte, v []int) []byte { return AppendArray(dst, v, AppendInt) }

// AppendIntRows appends a slice of int slices (null when nil).
func AppendIntRows(dst []byte, v [][]int) []byte { return AppendArray(dst, v, AppendInts) }

// AppendStrings appends a string slice (null when nil).
func AppendStrings(dst []byte, v []string) []byte { return AppendArray(dst, v, AppendString) }

// AppendFloats appends a float64 slice (null when nil); NaN and ±Inf
// fail as in AppendFloat.
func AppendFloats(dst []byte, v []float64) ([]byte, error) {
	for _, f := range v {
		if err := finite(f); err != nil {
			return dst, err
		}
	}
	return AppendArray(dst, v, appendFloat), nil
}
