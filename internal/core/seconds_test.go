package core

import (
	"math"
	"strconv"
	"testing"
)

// appendSecondsCases are the values where an integer rendering of
// strconv's 'f' format is most likely to part from it: exact ties at
// the sixth decimal (both ways of rounding to even), the values beside
// them, subnormals and zeros, both edges of the fast path's 2^33 range,
// and what must take the strconv path.
var appendSecondsCases = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 1e-6, 1e-7,
	0.0078125, 0.0234375, 1003680000.0078125, 1003680000.0234375, // exact ties: 7812.5, 23437.5 µs
	5e-7, 1.5e-6, 2.5e-6, 0.0000125, 0.0000135, 1.0000005, 1003680000.0000005,
	math.Nextafter(5e-7, 0), math.Nextafter(5e-7, 1), math.Nextafter(2.5e-6, 1),
	0.1, 0.3, 2.675, 999999.9999995, 1e9 + 0.9999995, 1003680000.000001,
	math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 2.2250738585072014e-308,
	1 << 32, 1<<33 - 1, math.Nextafter(1<<33, 0), 1 << 33, math.Nextafter(1<<33, math.Inf(1)),
	1 << 52, 1e300, math.MaxFloat64,
	-1, -5e-7, -1003680000.25, -math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestAppendSecondsMatchesStrconv(t *testing.T) {
	for _, v := range appendSecondsCases {
		want := strconv.AppendFloat([]byte("x="), v, 'f', 6, 64)
		if got := appendSeconds([]byte("x="), v); string(got) != string(want) {
			t.Errorf("%v (bits %#x): got %s, want %s", v, math.Float64bits(v), got, want)
		}
	}
	for micros := uint64(0); micros < 3e6; micros += 7 {
		v := float64(micros) / 1e6
		want := strconv.AppendFloat(nil, v, 'f', 6, 64)
		if got := appendSeconds(nil, v); string(got) != string(want) {
			t.Fatalf("%v: got %s, want %s", v, got, want)
		}
	}
}

// FuzzAppendSeconds: for any float64 bit pattern the rendering equals
// strconv.AppendFloat(v, 'f', 6, 64) byte for byte.
func FuzzAppendSeconds(f *testing.F) {
	for _, v := range appendSecondsCases {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want := strconv.AppendFloat(nil, v, 'f', 6, 64)
		if got := appendSeconds(nil, v); string(got) != string(want) {
			t.Fatalf("%v (bits %#x): got %s, want %s", v, bits, got, want)
		}
		// Values in the fast path's range are what real traces hold;
		// fold the pattern into it so the fuzzer spends time there too.
		v = math.Float64frombits(bits &^ (1 << 63) % math.Float64bits(1<<33))
		want = strconv.AppendFloat(nil, v, 'f', 6, 64)
		if got := appendSeconds(nil, v); string(got) != string(want) {
			t.Fatalf("%v (bits %#x): got %s, want %s", v, math.Float64bits(v), got, want)
		}
	})
}
