package types

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON wire format for values. Kinds map onto native JSON so payloads
// stay human-readable, and the encoding is chosen so the mapping
// round-trips exactly:
//
//	NULL   → null
//	bool   → true / false
//	string → "..."
//	int    → a number with neither '.' nor exponent (e.g. 42)
//	float  → a number with a '.' or exponent (1.0, 2.5, 1e30)
//
// Floats whose shortest rendering looks integral gain a ".0" suffix,
// so Int(1) and Float(1) stay distinct across a round trip. The float
// domain is finite by construction (see Arith and ParseFloat), so every
// value the engine builds has a JSON rendering.

// AppendJSON appends v's wire encoding (above) to dst. A non-finite
// float is an error, never the bytes "NaN.0": JSON has no spelling for
// it.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...), nil
	case KindInt:
		return strconv.AppendInt(dst, v.i(), 10), nil
	case KindFloat:
		f := v.f()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("types: cannot marshal non-finite float %v", f)
		}
		n := len(dst)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		for _, c := range dst[n:] {
			if c == '.' || c == 'e' {
				return dst, nil
			}
		}
		return append(dst, ".0"...), nil
	case KindString:
		return AppendJSONString(dst, v.s), nil
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0), nil
	}
	return dst, fmt.Errorf("types: cannot marshal kind %s", v.kind)
}

// MarshalJSON implements json.Marshaler with the wire format above.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

const hexDigits = "0123456789abcdef"

// AppendJSONArray appends xs as a JSON array of elem's encodings, null
// when xs is nil, as encoding/json writes a slice. It stops at the
// first element elem fails on.
func AppendJSONArray[T any](dst []byte, xs []T, elem func(*T, []byte) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = elem(&xs[i], dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendJSONString appends s as a JSON string, quoted exactly as
// encoding/json quotes it: '<', '>' and '&' escaped as \u003c, \u003e
// and \u0026, control characters as \b, \f, \n, \r, \t or \u00XX,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON implements json.Unmarshaler for the wire format
// produced by MarshalJSON: numbers with a fraction or exponent decode
// to floats, bare integers to ints. It reads data in place; only a
// string with an escape, a control byte or invalid UTF-8 goes through
// encoding/json's unquoting.
func (v *Value) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		return fmt.Errorf("types: empty JSON value")
	}
	switch {
	case string(data) == "null":
		*v = Null()
		return nil
	case string(data) == "true":
		*v = Bool(true)
		return nil
	case string(data) == "false":
		*v = Bool(false)
		return nil
	case data[0] == '"':
		if s, ok := plainJSONString(data); ok {
			*v = String(s)
			return nil
		}
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return fmt.Errorf("types: bad JSON string %s: %w", data, err)
		}
		*v = String(str)
		return nil
	}
	if bytes.ContainsAny(data, ".eE") {
		f, err := strconv.ParseFloat(string(data), 64)
		if err != nil {
			return fmt.Errorf("types: bad JSON number %s: %w", data, err)
		}
		*v = Float(f)
		return nil
	}
	i, err := strconv.ParseInt(string(data), 10, 64)
	if err != nil {
		// Integral but beyond int64 (e.g. 1e300 written digit by
		// digit): fall back to the float domain rather than failing.
		f, ferr := strconv.ParseFloat(string(data), 64)
		if ferr != nil {
			return fmt.Errorf("types: bad JSON number %s: %w", data, err)
		}
		*v = Float(f)
		return nil
	}
	*v = Int(i)
	return nil
}

// plainJSONString returns the contents of a quoted JSON string that
// needs no unquoting: no escape, no control byte, no inner quote, and
// valid UTF-8 (which encoding/json would rewrite to U+FFFD).
func plainJSONString(data []byte) (string, bool) {
	if len(data) < 2 || data[len(data)-1] != '"' {
		return "", false
	}
	body := data[1 : len(data)-1]
	for _, b := range body {
		if b < 0x20 || b == '"' || b == '\\' {
			return "", false
		}
	}
	if !utf8.Valid(body) {
		return "", false
	}
	return string(body), true
}

// ParseKind maps a kind's wire name (the Kind.String rendering) back
// to the Kind, for schema decoding.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "null":
		return KindNull, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "bool":
		return KindBool, nil
	}
	return KindNull, fmt.Errorf("types: unknown kind %q", name)
}
