package topk

import (
	"math"
	"strconv"
)

// coordLabel renders coordinates as open + "x1, x2, …" + close, each
// coordinate exactly as fmt's "%.3f" verb would. A label that fits in 64
// bytes is built on the stack, so the string is its one allocation.
func coordLabel(open, close string, xs ...float64) string {
	var buf [64]byte
	b := append(buf[:0], open...)
	for i, x := range xs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendFixed3(b, x)
	}
	return string(append(b, close...))
}

// appendFixed3 appends x with three decimals, byte for byte what
// fmt.Sprintf("%.3f", x) prints, without the multiprecision decimal
// conversion strconv runs for a fixed precision.
//
// It rounds |x|·1000 to an integer exactly. p = |x|·1000 rounded, and
// e = fma(|x|, 1000, −p) is the product's rounding error, also exact, so
// p + e is the true product. Below 4e12, p < 2^52, so ulp(p) ≤ 1/2 and
// f = p − ⌊p⌋ and d = f − 1/2 are exact multiples of ulp(p), while
// |e| ≤ ulp(p)/2. So when d ≠ 0 the true fraction lies on d's side of
// 1/2, and when d = 0 the sign of e decides; d = e = 0 is an exact tie,
// which rounds to even as strconv does. Larger and non-finite values go
// to strconv.
func appendFixed3(b []byte, x float64) []byte {
	a := math.Abs(x)
	if !(a < 4e12) {
		return strconv.AppendFloat(b, x, 'f', 3, 64)
	}
	p := a * 1000
	e := math.FMA(a, 1000, -p)
	fl := math.Floor(p)
	n := int64(fl)
	if d := (p - fl) - 0.5; d > 0 || (d == 0 && (e > 0 || (e == 0 && n%2 == 1))) {
		n++
	}
	if math.Signbit(x) {
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, n/1000, 10)
	frac := n % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
