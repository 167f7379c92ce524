package api

// The reply's float writer: Giulietti's Schubfach ("The Schubfach way to
// render doubles", 2020), which finds the shortest decimal that reads
// back as the float, the closest one when several are that short, ties
// to the even digit, from three 128-bit products and no per-digit loop.
// Those are the digits strconv's shortest mode chooses, and the layout
// below is strconv's 'g' with precision -1, so appendShortest writes
// strconv.AppendFloat(dst, x, 'g', -1, 64) byte for byte; the tests hold
// it to that. Zero and subnormals are left to strconv: Schubfach as
// published writes the smallest subnormals with a second digit strconv
// does not (4.9e-323 for 5e-323).

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

const (
	shortestKMin = -324 // the least k a normal float64 takes
	shortestKMax = 292  // the greatest
	mask63       = 1<<63 - 1
)

// appendShortest appends x as strconv.AppendFloat(dst, x, 'g', -1, 64)
// does.
func appendShortest(dst []byte, x float64) []byte {
	b := math.Float64bits(x)
	be := int(b>>52) & 0x7ff
	if uint(be-1) >= 0x7fe { // zero, subnormal, ±Inf or NaN
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	c := 1<<52 | b&(1<<52-1)
	q := be - 1075 // x is c·2^q
	if 0 < -q && -q < 53 && c&(1<<-q-1) == 0 {
		return appendDecimal(dst, c>>-q, 0) // an integer below 2^53
	}
	f, e := schubfach(c, q)
	return appendDecimal(dst, f, e)
}

// schubfach returns the digits f and exponent e of the shortest decimal
// f·10^e in the rounding interval of the normal float c·2^q, the closest
// to it when there are two, ties to even. It is figure 7 of the paper
// with the products of its figure 9. The interval is closed when c is
// even: round-to-even reads its endpoints back as c·2^q.
func schubfach(c uint64, q int) (f uint64, e int) {
	out := c & 1 // 1 when the interval is open
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // the lower neighbour is half as far: a binade edge
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	shortestOnce.Do(buildShortestTable)
	g := &shortestTable[k-shortestKMin]
	vb := rop(g[0], g[1], cb<<h)
	vbl := rop(g[0], g[1], cbl<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// s·10^k is v rounded down at 16 or 17 digits. First try one digit
	// fewer: the interval is narrower than 10^(k+1), so at most one of
	// s', t' lies in it, and when one does it is the shortest.
	s := vb >> 2
	if s >= 100 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both are in: the closer one, ties to even.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is the paper's r_o(cp·g·2^-127) for g = g1·2^63 + g0: the product
// rounded down, with the last bit set when anything was dropped.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

// The integer logarithms the paper's section 9 uses, exact over the
// exponents a float64 takes: ⌊log₁₀ 2^e⌋, ⌊log₁₀ ¾·2^e⌋ and ⌊log₂ 10^e⌋.
func flog10pow2(e int) int {
	return int(int64(e) * 661_971_961_083 >> 41)
}

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int {
	return int(int64(e) * 913_124_641_741 >> 38)
}

// shortestTable holds g(k) = ⌊10^-k·2^(125−⌊log₂ 10^-k⌋)⌋ + 1 for every
// k in [shortestKMin, shortestKMax] as its high and low 63 bits. It is
// built once, on the first float a process formats.
var (
	shortestOnce  sync.Once
	shortestTable *[shortestKMax - shortestKMin + 1][2]uint64
)

func buildShortestTable() {
	var tab [shortestKMax - shortestKMin + 1][2]uint64
	ten, g, low := big.NewInt(10), new(big.Int), new(big.Int)
	for k := shortestKMin; k <= shortestKMax; k++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil) // 10^|k|
		if k <= 0 {
			// 10^-k is an integer of BitLen bits: keep its top 126.
			sh := 125 - (p.BitLen() - 1)
			if sh >= 0 {
				g.Lsh(p, uint(sh))
			} else {
				g.Rsh(p, uint(-sh))
			}
		} else {
			// 10^-k = 1/p, and ⌊log₂ 1/p⌋ = −BitLen(p) as p is no power of two.
			g.Quo(g.Lsh(big.NewInt(1), uint(125+p.BitLen())), p)
		}
		g.Add(g, big.NewInt(1))
		low.And(g, big.NewInt(mask63))
		tab[k-shortestKMin] = [2]uint64{g.Rsh(g, 63).Uint64(), low.Uint64()}
	}
	shortestTable = &tab
}

// pairs is every two-digit decimal, "00" to "99".
const pairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDecimal appends the positive f·10^e, f < 10^17, in strconv's
// shortest 'g' layout: d[.ddd]e±XX when the decimal exponent is below
// −4 or at least 6, plain decimal notation otherwise, with no trailing
// zeros after a point either way. The digits are written in place; a
// point among them is made by writing them one byte to the right and
// moving the ones before it back over it.
func appendDecimal(dst []byte, f uint64, e int) []byte {
	for f%10 == 0 {
		f /= 10
		e++
	}
	n := bits.Len64(f) * 1233 >> 12 // ⌊log₁₀ 2^Len64⌋: n or n−1 digits
	if f >= pow10s[n] {
		n++
	}
	dp := n + e // the decimal point sits after dp digits
	i := len(dst)
	dst = slices.Grow(dst, 24)
	if x := dp - 1; x < -4 || x >= 6 {
		dst = dst[:i+1+n]
		putDigits(dst[i+1:], f)
		if dst[i] = dst[i+1]; n > 1 {
			dst[i+1] = '.'
		} else {
			dst = dst[:i+1]
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		dst = append(dst, 'e', sign)
		if x >= 100 {
			dst = append(dst, byte('0'+x/100))
			x %= 100
		}
		return append(dst, pairs[2*x], pairs[2*x+1])
	}
	switch {
	case dp <= 0:
		dst = append(dst, "0.000"[:2-dp]...)
		i = len(dst)
		dst = dst[:i+n]
		putDigits(dst[i:], f)
	case dp < n:
		dst = dst[:i+1+n]
		putDigits(dst[i+1:], f)
		copy(dst[i:], dst[i+1:i+1+dp])
		dst[i+dp] = '.'
	default:
		dst = dst[:i+n]
		putDigits(dst[i:], f)
		dst = append(dst, "00000"[:dp-n]...)
	}
	return dst
}

// pow10s[i] is 10^i.
var pow10s = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// putDigits writes f's decimal digits into b, which is exactly as long:
// eight at a time from the right, each eight split off by one division
// by 10^8, then two at a time.
func putDigits(b []byte, f uint64) {
	i := len(b)
	for i >= 8 {
		put8(b[i-8:i], uint32(f%1e8))
		f /= 1e8
		i -= 8
	}
	r := uint32(f)
	for i >= 2 {
		d := r % 100
		r /= 100
		i -= 2
		b[i], b[i+1] = pairs[2*d], pairs[2*d+1]
	}
	if i == 1 {
		b[0] = byte('0' + r)
	}
}

// put8 writes v < 10^8 as eight digits, leading zeros included, with
// one store: the halves, quarters and digits of v are split off in the
// lanes of one word at once (v/10^4 and v%10^4 in 32-bit lanes, then
// /100 and /10 by multiply and shift, exact for lanes below 10^4 and
// 100), the first digit in the lowest byte.
func put8(b []byte, v uint32) {
	x := uint64(v/10000) | uint64(v%10000)<<32
	y := x * 10486 >> 20 & 0x7f_0000_007f // lane / 100
	x = (x-y*100)<<16 | y
	y = x * 103 >> 10 & 0x000f_000f_000f_000f // lane / 10
	x = (x-y*10)<<8 | y
	binary.LittleEndian.PutUint64(b, x|0x3030_3030_3030_3030)
}
