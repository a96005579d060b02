package algebra

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/mahif/mahif/internal/types"
)

// same reports whether two values are the same kind with the same bits.
func same(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Equal(b)
}

// fold accumulates vals into a fresh fn accumulator.
func fold(t testing.TB, fn AggFunc, vals []types.Value) *AggAcc {
	t.Helper()
	a := NewAggAcc(fn)
	for _, v := range vals {
		if err := a.Add(v); err != nil {
			t.Fatalf("%s: Add(%s): %v", fn, v, err)
		}
	}
	return &a
}

// result finalizes a, an error rendered as a NULL plus ok=false.
func result(a *AggAcc) (types.Value, bool) {
	v, err := a.Result()
	return v, err == nil
}

// bigSum is the reference: the bag's exact total in math/big, rounded
// once to nearest even, and the int64 wraparound sum of its ints.
// finite is false when the bag holds a NaN or an infinity or the
// rounded total overflows; isFloat when it holds a float.
func bigSum(vals []types.Value) (total float64, wrap int64, finite, isFloat bool) {
	acc := new(big.Float).SetPrec(4096)
	for _, v := range vals {
		switch v.Kind() {
		case types.KindInt:
			acc.Add(acc, new(big.Float).SetPrec(4096).SetInt64(v.AsInt()))
			wrap += v.AsInt()
		case types.KindFloat:
			isFloat = true
			f := v.AsFloat()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return 0, wrap, false, true
			}
			acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(f))
		}
	}
	total, _ = acc.Float64()
	if total == 0 {
		total = 0
	}
	return total, wrap, !math.IsInf(total, 0), isFloat
}

// randomBag draws a bag mixing tenths (whose float sums depend on order),
// values across a wide exponent range, integers and NULLs.
func randomBag(r *rand.Rand, n int, ints bool) []types.Value {
	vals := make([]types.Value, n)
	for i := range vals {
		switch k := r.Intn(10); {
		case k < 4:
			vals[i] = types.Float(float64(r.Intn(2001)-1000) / 10)
		case k < 6:
			vals[i] = types.Float(r.NormFloat64() * math.Ldexp(1, r.Intn(120)-60))
		case k < 8 && ints:
			vals[i] = types.Int(r.Int63n(1<<40) - 1<<39)
		case k < 9:
			vals[i] = types.Null()
		default:
			vals[i] = types.Float(float64(r.Intn(7)) / 10)
		}
	}
	return vals
}

// TestExactSumPermutationInvariant: every permutation of a bag gives the
// bit-identical SUM and AVG, and both equal the math/big reference.
func TestExactSumPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for c := 0; c < 300; c++ {
		vals := randomBag(r, r.Intn(120), c%2 == 0)
		want, wantOK := result(fold(t, AggSum, vals))
		wantAvg, _ := result(fold(t, AggAvg, vals))
		ref, wrap, finite, isFloat := bigSum(vals)
		count := 0
		for _, v := range vals {
			if !v.IsNull() {
				count++
			}
		}
		switch {
		case count == 0:
			if !want.IsNull() {
				t.Fatalf("case %d: SUM over no values = %s, want NULL", c, want)
			}
		case !isFloat:
			if !same(want, types.Int(wrap)) {
				t.Fatalf("case %d: int SUM = %s, want %d", c, want, wrap)
			}
		case wantOK != finite || finite && !same(want, types.Float(ref)):
			t.Fatalf("case %d: SUM = %s (ok %v), the exact total rounds to %v (finite %v)", c, want, wantOK, ref, finite)
		}
		for p := 0; p < 8; p++ {
			r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			got, _ := result(fold(t, AggSum, vals))
			gotAvg, _ := result(fold(t, AggAvg, vals))
			if !same(got, want) || !same(gotAvg, wantAvg) {
				t.Fatalf("case %d, permutation %d: SUM %s AVG %s, first order gave %s %s", c, p, got, gotAvg, want, wantAvg)
			}
		}
	}
}

// TestExactSumAddThenRemoveRestores: merging a bag in and taking it out
// again leaves every aggregate's result bit-identical, and merging two
// halves equals folding the whole.
func TestExactSumAddThenRemoveRestores(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for c := 0; c < 300; c++ {
		x, y := randomBag(r, r.Intn(60), c%3 != 0), randomBag(r, r.Intn(60), c%3 != 1)
		for _, fn := range []AggFunc{AggCount, AggSum, AggAvg} {
			a, b := fold(t, fn, x), fold(t, fn, y)
			want, wantOK := result(a)
			if err := a.Merge(b, 1); err != nil {
				t.Fatal(err)
			}
			whole, wholeOK := result(fold(t, fn, append(append([]types.Value{}, x...), y...)))
			if got, ok := result(a); ok != wholeOK || !same(got, whole) {
				t.Fatalf("case %d %s: merged halves give %s, the whole bag %s", c, fn, got, whole)
			}
			if err := a.Merge(b, -1); err != nil {
				t.Fatal(err)
			}
			if got, ok := result(a); ok != wantOK || !same(got, want) {
				t.Fatalf("case %d %s: add-then-remove gives %s, was %s", c, fn, got, want)
			}
		}
	}
}

// TestExactSumIntWraparound: an int-only SUM wraps like int64 addition,
// while AVG divides the exact total.
func TestExactSumIntWraparound(t *testing.T) {
	maxI := types.Int(math.MaxInt64)
	for _, tc := range []struct {
		fn   AggFunc
		vals []types.Value
		want types.Value
	}{
		{AggSum, []types.Value{maxI, types.Int(1)}, types.Int(math.MinInt64)},
		{AggSum, []types.Value{types.Int(math.MinInt64), types.Int(-1), types.Int(1)}, types.Int(math.MinInt64)},
		{AggAvg, []types.Value{maxI, maxI}, types.Float(math.MaxInt64)},
		{AggSum, []types.Value{maxI, maxI, types.Float(0.5)}, types.Float(2*float64(math.MaxInt64) - 1.5)},
	} {
		got, err := fold(t, tc.fn, tc.vals).Result()
		if err != nil || !same(got, tc.want) {
			t.Errorf("%s%v = %s, %v; want %s", tc.fn, tc.vals, got, err, tc.want)
		}
	}
}

// TestExactSumKinds pins the result-kind rule: an int-only bag sums to
// an int, any float makes it a float (also after the ints cancel), a
// zero total is +0, and taking the only float out makes it int again.
func TestExactSumKinds(t *testing.T) {
	for _, tc := range []struct {
		vals []types.Value
		want types.Value
	}{
		{[]types.Value{types.Int(1), types.Int(2)}, types.Int(3)},
		{[]types.Value{types.Int(1), types.Float(2)}, types.Float(3)},
		{[]types.Value{types.Float(2), types.Int(1)}, types.Float(3)},
		{[]types.Value{types.Int(5), types.Float(0), types.Int(-5)}, types.Float(0)},
		{[]types.Value{types.Float(math.Copysign(0, -1))}, types.Float(0)},
		{[]types.Value{types.Float(0.1), types.Float(-0.1)}, types.Float(0)},
		{[]types.Value{types.Null(), types.Null()}, types.Null()},
	} {
		got, err := fold(t, AggSum, tc.vals).Result()
		if err != nil || !same(got, tc.want) {
			t.Errorf("SUM%v = %s, %v; want %s", tc.vals, got, err, tc.want)
		}
	}
	a := fold(t, AggSum, []types.Value{types.Int(4), types.Float(0.5)})
	if err := a.Merge(fold(t, AggSum, []types.Value{types.Float(0.5)}), -1); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Result(); err != nil || !same(got, types.Int(4)) {
		t.Errorf("SUM after taking the only float out = %s, %v; want 4", got, err)
	}
	s := NewAggAcc(AggSum)
	if err := s.Add(types.String("x")); err == nil {
		t.Error("SUM over a string must error")
	}
}

// TestExactSumOverflow: SUM and AVG error exactly when the rounded total
// is not finite — not when a partial sum overflows on the way, and again
// not once the value that broke it is taken out.
func TestExactSumOverflow(t *testing.T) {
	maxF := math.MaxFloat64
	halfUlp := math.Ldexp(1, 970) // half the spacing of floats at MaxFloat64
	for _, tc := range []struct {
		vals []float64
		ok   bool
	}{
		{[]float64{maxF, maxF}, false},
		{[]float64{maxF, maxF, -maxF}, true},
		{[]float64{-maxF, maxF, maxF}, true},
		{[]float64{maxF, halfUlp}, false}, // a tie, to even: rounds up to 2^1024
		{[]float64{maxF, halfUlp, -math.Ldexp(1, 900)}, true},
		{[]float64{maxF, halfUlp / 2}, true},
		{[]float64{math.Inf(1)}, false},
		{[]float64{math.Inf(1), math.Inf(-1)}, false},
		{[]float64{math.NaN(), 1}, false},
	} {
		vals := make([]types.Value, len(tc.vals))
		for i, f := range tc.vals {
			vals[i] = types.Float(f)
		}
		ref, _, finite, _ := bigSum(vals)
		if finite != tc.ok {
			t.Fatalf("%v: the reference says finite=%v", tc.vals, finite)
		}
		for _, fn := range []AggFunc{AggSum, AggAvg} {
			for _, order := range [][]types.Value{vals, reversed(vals)} {
				got, err := fold(t, fn, order).Result()
				if (err == nil) != tc.ok {
					t.Errorf("%s%v = %s, %v; want ok=%v", fn, tc.vals, got, err, tc.ok)
				}
				if fn == AggSum && err == nil && !same(got, types.Float(ref)) {
					t.Errorf("SUM%v = %s, want %v", tc.vals, got, ref)
				}
			}
		}
	}
	// Removing what made the total infinite restores a finite SUM.
	a := fold(t, AggSum, []types.Value{types.Float(1), types.Float(math.Inf(1)), types.Float(maxF), types.Float(maxF)})
	if err := a.Merge(fold(t, AggSum, []types.Value{types.Float(math.Inf(1)), types.Float(maxF)}), -1); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Result(); err != nil || !same(got, types.Float(maxF+1)) {
		t.Errorf("after taking the infinity and one MaxFloat64 out: %s, %v; want %v", got, err, maxF+1)
	}
}

func reversed(vals []types.Value) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[len(vals)-1-i] = v
	}
	return out
}

// FuzzExactSum decodes a bag of ints and floats (9 bytes a value: a kind
// byte, then 8 bytes of payload bits) and requires SUM to equal the
// math/big reference, to be the same in reverse order, and to be the
// same when the bag is folded in two halves and merged. Its seeds run
// under every go test, -short included.
func FuzzExactSum(f *testing.F) {
	enc := func(vals ...any) []byte {
		var b []byte
		for _, v := range vals {
			var bits uint64
			kind := byte(0)
			switch x := v.(type) {
			case float64:
				bits = math.Float64bits(x)
			case int64:
				kind, bits = 1, uint64(x)
			}
			b = append(b, kind)
			b = binary.LittleEndian.AppendUint64(b, bits)
		}
		return b
	}
	f.Add(enc(0.1, 0.2, 0.3))
	f.Add(enc(1e308, 1e308, -1e308))
	f.Add(enc(1e16, 1.0, 1e-16))
	f.Add(enc(int64(math.MaxInt64), int64(1), 0.5))
	f.Add(enc(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 5e-324))
	f.Add(enc(math.MaxFloat64, math.Ldexp(1, 970)))
	f.Add(enc(math.Inf(1), 1.0))
	f.Add(enc(int64(3), int64(-3), -0.0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []types.Value
		for len(data) >= 9 && len(vals) < 64 {
			bits := binary.LittleEndian.Uint64(data[1:9])
			if data[0]&1 == 1 {
				vals = append(vals, types.Int(int64(bits)))
			} else {
				vals = append(vals, types.Float(math.Float64frombits(bits)))
			}
			data = data[9:]
		}
		got, ok := result(fold(t, AggSum, vals))
		ref, wrap, finite, isFloat := bigSum(vals)
		switch {
		case len(vals) == 0:
			if !got.IsNull() {
				t.Fatalf("SUM of nothing = %s", got)
			}
		case !isFloat:
			if !ok || !same(got, types.Int(wrap)) {
				t.Fatalf("int SUM%v = %s, want %d", vals, got, wrap)
			}
		case ok != finite || finite && !same(got, types.Float(ref)):
			t.Fatalf("SUM%v = %s (ok %v), reference %v (finite %v)", vals, got, ok, ref, finite)
		}
		if rev, revOK := result(fold(t, AggSum, reversed(vals))); revOK != ok || !same(rev, got) {
			t.Fatalf("SUM%v reversed = %s, forward %s", vals, rev, got)
		}
		half := len(vals) / 2
		a, b := fold(t, AggSum, vals[:half]), fold(t, AggSum, vals[half:])
		if err := a.Merge(b, 1); err != nil {
			t.Fatal(err)
		}
		if m, mOK := result(a); mOK != ok || !same(m, got) {
			t.Fatalf("SUM%v merged from halves = %s, folded %s", vals, m, got)
		}
	})
}

// TestExtremumMergeRefusals: MIN/MAX merge where the two states decide
// the result, and refuse where they do not.
func TestExtremumMergeRefusals(t *testing.T) {
	vals := func(xs ...types.Value) []types.Value { return xs }
	for _, tc := range []struct {
		fn         AggFunc
		hist, bag  []types.Value
		sign       int
		want       types.Value
		wantRefuse error
	}{
		{AggMin, vals(types.Int(3), types.Int(1), types.Int(5)), vals(types.Int(5)), -1, types.Int(1), nil},
		{AggMin, vals(types.Int(3), types.Int(1), types.Int(5)), vals(types.Int(1)), -1, types.Null(), ErrExtremumRemoved},
		{AggMax, vals(types.Int(3), types.Float(5)), vals(types.Int(5)), -1, types.Null(), ErrExtremumRemoved},
		{AggMin, vals(types.Int(3)), vals(types.Int(2), types.Int(7)), 1, types.Int(2), nil},
		{AggMin, vals(types.Int(3)), vals(types.Int(3)), 1, types.Int(3), nil},
		{AggMin, vals(types.Int(3)), vals(types.Float(3)), 1, types.Null(), ErrExtremumTie},
		{AggMax, vals(types.Null()), vals(types.String("b")), 1, types.String("b"), nil},
	} {
		a := fold(t, tc.fn, tc.hist)
		err := a.Merge(fold(t, tc.fn, tc.bag), tc.sign)
		if !errors.Is(err, tc.wantRefuse) || tc.wantRefuse == nil && err != nil {
			t.Errorf("%s%v merge(%v, %d): %v, want %v", tc.fn, tc.hist, tc.bag, tc.sign, err, tc.wantRefuse)
			continue
		}
		if err == nil {
			if got, _ := result(a); !same(got, tc.want) {
				t.Errorf("%s%v merge(%v, %d) = %s, want %s", tc.fn, tc.hist, tc.bag, tc.sign, got, tc.want)
			}
		}
	}
	// Incomparable kinds are Compare's error, not a refusal.
	a := fold(t, AggMin, vals(types.Int(1)))
	if err := a.Merge(fold(t, AggMin, vals(types.String("a"))), 1); err == nil || errors.Is(err, ErrExtremumTie) {
		t.Errorf("MIN merge of an int and a string: %v, want a comparison error", err)
	}
}
