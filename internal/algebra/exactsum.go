package algebra

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// exactSum is the exact sum of a bag of numbers, whatever order they
// arrive in and whatever was added and then taken away again (merge
// with sign −1), so a SUM or AVG over a bag has one answer: the bag's
// total rounded once, to nearest even.
//
//   - Integers add into a 128-bit two's-complement total; its low word
//     read as an int64 is the wraparound sum an int-only SUM returns.
//   - Finite floats add into Shewchuk partials (the algorithm of
//     Python's math.fsum): non-overlapping float64s of increasing
//     magnitude whose exact sum is the floats' exact sum. Up to four
//     partials live inline; more spill to a slice.
//   - Should two partials overflow when added, the partials move into a
//     big.Int holding the exact float total scaled by 2^1074 (every
//     float64 is an integer multiple of 2^-1074), and later floats add
//     there.
//   - Non-finite floats are only counted: a bag holding one has no
//     finite total.
type exactSum struct {
	ilo     uint64 // integer total, low word
	ihi     int64  // integer total, high word
	floats  int64  // float values in the bag
	special int64  // non-finite float values in the bag

	n     int // partials in small, while spill is nil
	small [4]float64
	spill []float64
	big   *big.Int

	// borrowed marks spill and big as shared with the sum this one was
	// copied from (GroupState.Clone): they are copied before a write.
	borrowed bool
}

// addInt adds one integer: i sign-extended to 128 bits.
func (s *exactSum) addInt(i int64) {
	lo, c := bits.Add64(s.ilo, uint64(i), 0)
	s.ilo, s.ihi = lo, s.ihi+i>>63+int64(c)
}

// addFloat adds one float value.
func (s *exactSum) addFloat(f float64) {
	s.floats++
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		s.special++
	case f != 0:
		s.own()
		s.addPartial(f)
	}
}

// merge adds (sign > 0) or removes (sign < 0) the bag o summed.
func (s *exactSum) merge(o *exactSum, sign int64) {
	if sign > 0 {
		lo, c := bits.Add64(s.ilo, o.ilo, 0)
		s.ilo, s.ihi = lo, s.ihi+o.ihi+int64(c)
	} else {
		lo, b := bits.Sub64(s.ilo, o.ilo, 0)
		s.ilo, s.ihi = lo, s.ihi-o.ihi-int64(b)
	}
	s.floats += sign * o.floats
	s.special += sign * o.special
	if o.big == nil && len(o.partials()) == 0 {
		return
	}
	s.own()
	if o.big != nil {
		s.toBig()
		if sign > 0 {
			s.big.Add(s.big, o.big)
		} else {
			s.big.Sub(s.big, o.big)
		}
	}
	for _, p := range o.partials() {
		s.addPartial(float64(sign) * p)
	}
}

// own copies spill and big if they are shared.
func (s *exactSum) own() {
	if !s.borrowed {
		return
	}
	s.borrowed = false
	if s.spill != nil {
		s.spill = slices.Clone(s.spill)
	}
	if s.big != nil {
		s.big = new(big.Int).Set(s.big)
	}
}

func (s *exactSum) partials() []float64 {
	if s.spill != nil {
		return s.spill
	}
	return s.small[:s.n]
}

// addPartial adds a finite, non-zero x to the partials, keeping them
// non-overlapping and increasing in magnitude.
func (s *exactSum) addPartial(x float64) {
	if s.big != nil {
		s.big.Add(s.big, scaledFloat(x))
		return
	}
	ps := s.partials()
	i := 0
	for j, y := range ps {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) {
			// The total so far is ps[:i] + x + y + ps[j+1:], exactly.
			rest := append(append([]float64{x, y}, ps[:i]...), ps[j+1:]...)
			s.spill, s.n = nil, 0
			s.toBig()
			for _, p := range rest {
				s.big.Add(s.big, scaledFloat(p))
			}
			return
		}
		lo := y - (hi - x)
		if lo != 0 {
			ps[i] = lo
			i++
		}
		x = hi
	}
	switch {
	case s.spill != nil:
		s.spill = ps[:i]
		if x != 0 {
			s.spill = append(s.spill, x)
		}
	case x == 0:
		s.n = i
	case i < len(s.small):
		s.small[i], s.n = x, i+1
	default:
		s.spill = append(append(make([]float64, 0, 2*len(s.small)), s.small[:i]...), x)
		s.n = 0
	}
}

// toBig moves the partials into the big total.
func (s *exactSum) toBig() {
	if s.big != nil {
		return
	}
	s.big = new(big.Int)
	for _, p := range s.partials() {
		s.big.Add(s.big, scaledFloat(p))
	}
	s.spill, s.n = nil, 0
}

// total returns the bag's exact total — integers and floats — rounded
// to the nearest float64, ties to even; ±Inf when that rounding
// overflows. An exactly zero total is +0. The special values are not
// included (see special).
func (s *exactSum) total() float64 {
	if s.ilo == 0 && s.ihi == 0 {
		if s.big != nil {
			return roundScaled(s.big)
		}
		return roundPartials(s.partials())
	}
	if s.big == nil && len(s.partials()) == 0 && s.ihi == int64(s.ilo)>>63 {
		return float64(int64(s.ilo)) // an int64 total converts rounding to nearest even
	}
	// Mixed: add the integer total, as three exact float64 pieces, to a
	// copy of the partials.
	t := exactSum{n: s.n, small: s.small, spill: s.spill, big: s.big, borrowed: true}
	t.own()
	for _, p := range []float64{float64(s.ilo & (1<<32 - 1)), float64(s.ilo>>32) * (1 << 32), float64(s.ihi) * (1 << 64)} {
		if p != 0 {
			t.addPartial(p)
		}
	}
	if t.big != nil {
		return roundScaled(t.big)
	}
	return roundPartials(t.partials())
}

// roundPartials rounds the exact sum of Shewchuk partials to the
// nearest float64, ties to even (CPython's math_fsum tail, with the
// half-way correction across partials).
func roundPartials(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	if math.IsInf(hi, 0) {
		// The top two partials overflowed; whether the rest pull the
		// total back below the overflow threshold takes exact arithmetic.
		b := new(big.Int)
		for _, q := range p {
			b.Add(b, scaledFloat(q))
		}
		return roundScaled(b)
	}
	return hi
}

// scaledFloat returns the finite x times 2^1074, an integer.
func scaledFloat(x float64) *big.Int {
	u := math.Float64bits(x)
	exp := int(u >> 52 & 0x7ff)
	mant := u & (1<<52 - 1)
	b := new(big.Int)
	if exp == 0 {
		b.SetUint64(mant) // subnormal: mant × 2^-1074
	} else {
		b.SetUint64(mant | 1<<52)
		b.Lsh(b, uint(exp-1))
	}
	if u>>63 != 0 {
		b.Neg(b)
	}
	return b
}

// roundScaled rounds b × 2^-1074 to the nearest float64, ties to even.
func roundScaled(b *big.Int) float64 {
	f := new(big.Float).SetInt(b)
	f.SetMantExp(f, -1074)
	v, _ := f.Float64()
	if v == 0 {
		return 0
	}
	return v
}
