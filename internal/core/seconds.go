package core

import (
	"math"
	"math/bits"
	"strconv"
)

// appendSeconds appends v as strconv.AppendFloat(dst, v, 'f', 6, 64)
// does, byte for byte. strconv renders the 'f' format through an
// arbitrary-precision decimal; for a non-negative v below 2^33 seconds
// (over 270 years) exact integer arithmetic does the same job. Such a v
// is mant·2^-shift exactly, with shift ≥ 20, so v·10⁶ is the 73-bit
// product mant·10⁶ shifted right by shift, rounded half to even on the
// bits shifted out, as strconv rounds. Anything else — negative, -0,
// larger, NaN or infinite — goes to strconv.
func appendSeconds(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	if b>>63 != 0 || !(v < 1<<33) {
		return strconv.AppendFloat(dst, v, 'f', 6, 64)
	}
	exp, mant := int(b>>52), b&(1<<52-1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	shift := uint(1075 - exp)
	var micros uint64
	if shift <= 73 { // larger shifts leave less than half a microsecond
		hi, lo := bits.Mul64(mant, 1e6)
		// A uint64 shifted by 64 or more is 0, and shift-64 wraps to a
		// huge count below 64, so in each expression below only the
		// terms that apply to this shift are nonzero.
		micros = hi<<(64-shift) | lo>>shift | hi>>(shift-64)
		half := shift - 1
		roundBit := (lo>>half | hi>>(half-64)) & 1
		sticky := lo&(1<<half-1) != 0 || half > 64 && hi&(1<<(half-64)-1) != 0
		if roundBit == 1 && (sticky || micros&1 == 1) {
			micros++
		}
	}
	dst = strconv.AppendUint(dst, micros/1e6, 10)
	var frac [7]byte
	frac[0] = '.'
	for i, f := 6, micros%1e6; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(dst, frac[:]...)
}
