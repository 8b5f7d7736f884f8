package web

import (
	"strconv"

	"hiddensky/internal/jsonbuf"
)

// The search bodies are the wire of every upstream query, so they skip
// encoding/json's reflection: AppendJSON renders exactly what
// json.Marshal would, DecodeJSON accepts exactly what json.Unmarshal
// would and yields the same value (see package jsonbuf). The
// MarshalJSON/UnmarshalJSON wrappers give every other encoding/json user
// the same code.

// AppendJSON appends the request's JSON to dst.
func (r SearchRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"preds":`...)
	return append(jsonbuf.AppendArray(dst, r.Preds, appendPredicate), '}'), nil
}

func appendPredicate(dst []byte, p WirePredicate) []byte {
	dst = append(dst, `{"attr":`...)
	dst = jsonbuf.AppendInt(dst, p.Attr)
	dst = append(dst, `,"op":`...)
	dst = jsonbuf.AppendString(dst, p.Op)
	dst = append(dst, `,"value":`...)
	return append(jsonbuf.AppendInt(dst, p.Value), '}')
}

// DecodeJSON decodes one request value at the scanner's cursor.
func (r *SearchRequest) DecodeJSON(s *jsonbuf.Scanner) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("preds"):
			for e := jsonbuf.Slice(s, &r.Preds); e.Next(); {
				decodePredicate(s, e.Elem())
			}
		default:
			s.Skip()
		}
	}
}

func decodePredicate(s *jsonbuf.Scanner, p *WirePredicate) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("attr"):
			s.Int(&p.Attr)
		case o.Key("op"):
			s.Str(&p.Op)
		case o.Key("value"):
			s.Int(&p.Value)
		default:
			s.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r SearchRequest) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON.
func (r *SearchRequest) UnmarshalJSON(data []byte) error {
	s := jsonbuf.NewScanner(data)
	r.DecodeJSON(&s)
	return s.End()
}

// AppendJSON appends the response's JSON to dst.
func (r SearchResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"tuples":`...)
	dst = jsonbuf.AppendIntRows(dst, r.Tuples)
	dst = append(dst, `,"overflow":`...)
	dst = strconv.AppendBool(dst, r.Overflow)
	if len(r.Filters) > 0 {
		dst = append(dst, `,"filters":`...)
		dst = jsonbuf.AppendArray(dst, r.Filters, jsonbuf.AppendStrings)
	}
	return append(dst, '}'), nil
}

// DecodeJSON decodes one response value at the scanner's cursor.
func (r *SearchResponse) DecodeJSON(s *jsonbuf.Scanner) {
	for o := s.Object(); o.Next(); {
		switch {
		case o.Key("tuples"):
			s.IntRows(&r.Tuples)
		case o.Key("overflow"):
			s.Bool(&r.Overflow)
		case o.Key("filters"):
			for e := jsonbuf.Slice(s, &r.Filters); e.Next(); {
				s.Strs(e.Elem())
			}
		default:
			s.Skip()
		}
	}
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (r SearchResponse) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with DecodeJSON.
func (r *SearchResponse) UnmarshalJSON(data []byte) error {
	s := jsonbuf.NewScanner(data)
	r.DecodeJSON(&s)
	return s.End()
}
