package service

import (
	"strconv"

	"hiddensky/internal/jsonbuf"
)

// The /v1/answer/topk bodies carry every served answer, so they skip
// encoding/json's reflection: AppendJSON renders exactly what
// json.Marshal would, DecodeJSON accepts exactly what json.Unmarshal
// would and yields the same value (see package jsonbuf). The
// MarshalJSON/UnmarshalJSON wrappers give every other encoding/json user
// the same code.

// AppendJSON appends the request's JSON to dst. NaN or ±Inf weights
// fail, as they do in json.Marshal.
func (r AnswerTopKRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"store":`...)
	dst = jsonbuf.AppendString(dst, r.Store)
	dst = append(dst, `,"weights":`...)
	dst, err := jsonbuf.AppendFloats(dst, r.Weights)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"k":`...)
	dst = jsonbuf.AppendInt(dst, r.K)
	if r.Normalized {
		dst = append(dst, `,"normalized":true`...)
	}
	if len(r.Filter) > 0 {
		dst = append(dst, `,"filter":`...)
		dst = jsonbuf.AppendArray(dst, r.Filter, appendRange)
	}
	return append(dst, '}'), nil
}

func appendRange(dst []byte, r AnswerRange) []byte {
	dst = append(dst, `{"attr":`...)
	dst = jsonbuf.AppendInt(dst, r.Attr)
	if r.Lo != nil {
		dst = append(dst, `,"lo":`...)
		dst = jsonbuf.AppendInt(dst, *r.Lo)
	}
	if r.Hi != nil {
		dst = append(dst, `,"hi":`...)
		dst = jsonbuf.AppendInt(dst, *r.Hi)
	}
	return append(dst, '}')
}

// DecodeJSON decodes one request value at the scanner's cursor.
func (r *AnswerTopKRequest) DecodeJSON(s *jsonbuf.Scanner) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("store"):
			s.Str(&r.Store)
		case o.Key("weights"):
			s.Floats(&r.Weights)
		case o.Key("k"):
			s.Int(&r.K)
		case o.Key("normalized"):
			s.Bool(&r.Normalized)
		case o.Key("filter"):
			for e := jsonbuf.Slice(s, &r.Filter); e.Next(); {
				decodeRange(s, e.Elem())
			}
		default:
			s.Skip()
		}
	}
}

func decodeRange(s *jsonbuf.Scanner, r *AnswerRange) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("attr"):
			s.Int(&r.Attr)
		case o.Key("lo"):
			s.IntPtr(&r.Lo)
		case o.Key("hi"):
			s.IntPtr(&r.Hi)
		default:
			s.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r AnswerTopKRequest) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON.
func (r *AnswerTopKRequest) UnmarshalJSON(data []byte) error {
	s := jsonbuf.NewScanner(data)
	r.DecodeJSON(&s)
	return s.End()
}

// AppendJSON appends the response's JSON to dst. NaN or ±Inf scores
// fail, as they do in json.Marshal.
func (r AnswerTopKResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"store":`...)
	dst = jsonbuf.AppendString(dst, r.Store)
	dst = append(dst, `,"k":`...)
	dst = jsonbuf.AppendInt(dst, r.K)
	dst = append(dst, `,"exact":`...)
	dst = strconv.AppendBool(dst, r.Exact)
	dst = append(dst, `,"band_k":`...)
	dst = jsonbuf.AppendInt(dst, r.BandK)
	dst = append(dst, `,"tuples":`...)
	dst = jsonbuf.AppendIntRows(dst, r.Tuples)
	dst = append(dst, `,"scores":`...)
	dst, err := jsonbuf.AppendFloats(dst, r.Scores)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"levels":`...)
	dst = jsonbuf.AppendInts(dst, r.Levels)
	return append(dst, '}'), nil
}

// DecodeJSON decodes one response value at the scanner's cursor.
func (r *AnswerTopKResponse) DecodeJSON(s *jsonbuf.Scanner) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("store"):
			s.Str(&r.Store)
		case o.Key("k"):
			s.Int(&r.K)
		case o.Key("exact"):
			s.Bool(&r.Exact)
		case o.Key("band_k"):
			s.Int(&r.BandK)
		case o.Key("tuples"):
			s.IntRows(&r.Tuples)
		case o.Key("scores"):
			s.Floats(&r.Scores)
		case o.Key("levels"):
			s.Ints(&r.Levels)
		default:
			s.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r AnswerTopKResponse) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON.
func (r *AnswerTopKResponse) UnmarshalJSON(data []byte) error {
	s := jsonbuf.NewScanner(data)
	r.DecodeJSON(&s)
	return s.End()
}
