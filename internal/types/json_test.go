package types

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"unicode/utf8"
)

// jsonEdgeStrings are the strings whose quoting differs between
// encoders: HTML characters, every escape class, the two JavaScript
// line separators and invalid UTF-8.
var jsonEdgeStrings = []string{
	"", "plain", "<&>", `a"b\c`, "\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"\u2028\u2029", "x\u2028y", "\xff", "a\xc3", "\xed\xa0\x80", "héllo", "日本語", "😀", "\ufffd",
}

// TestAppendJSONStringMatchesEncodingJSON requires the quoting routine
// to write what json.Marshal writes for a string, byte for byte.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	strs := append([]string(nil), jsonEdgeStrings...)
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.IntN(12))
		for j := range b {
			b[j] = byte(r.IntN(256))
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestValueAppendJSONNonFinite: NaN and ±Inf have no JSON spelling, so
// encoding them is an error, never the bytes "NaN.0".
func TestValueAppendJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if out, err := Float(f).AppendJSON([]byte("x")); err == nil || string(out) != "x" {
			t.Errorf("AppendJSON(%v) = %q, %v; want the input back and an error", f, out, err)
		}
		if _, err := json.Marshal(Float(f)); err == nil {
			t.Errorf("json.Marshal(Float(%v)) succeeded", f)
		}
	}
}

// TestValueJSONRoundTrip requires decode(encode(v)) to be v exactly —
// kind and float bits, −0 included — and a string's decoding to agree
// with encoding/json's, whether or not it takes the in-place path.
func TestValueJSONRoundTrip(t *testing.T) {
	vals := []Value{Null(), True, False, Int(0), Int(-1), Int(1 << 53), Int(1<<53 + 1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-2.5), Float(1 << 53), Float(1e30), Float(1e-7), Float(5e-324), Float(math.MaxFloat64)}
	for _, s := range jsonEdgeStrings {
		vals = append(vals, String(s))
	}
	for _, v := range vals {
		data, err := v.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back Value
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatalf("%v: unmarshal %s: %v", v, data, err)
		}
		want := v
		if v.Kind() == KindString && !utf8.ValidString(v.s) {
			var s string
			if err := json.Unmarshal(data, &s); err != nil {
				t.Fatal(err)
			}
			want = String(s)
		}
		if back != want { // == on Values is bit identity: kind, payload bits, string
			t.Errorf("round trip %v → %s → %v", v, data, back)
		}
	}
}
