package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// float reads a number as number and strconv.ParseFloat(lit, 64) read
// it, in one pass: the loop that checks the JSON grammar also collects
// up to 19 significant digits into a uint64 and the decimal exponent.
// That value converts exactly by Clinger's fast path (exactFloat) or,
// failing it, by Eisel–Lemire (eiselLemire64); what neither takes, more
// than 19 digits, a halfway case, an overflow or a subnormal, goes
// through strconv.ParseFloat. All three round correctly, so every value
// has ParseFloat's bits, and float accepts exactly what it did. On a
// decline r.i is where number and ParseFloat would leave it.
func (r *reader) float() (float64, bool) {
	r.peek()
	b, i := r.b, r.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// man·10^exp is the number while nd, its count of significant digits
	// from the first nonzero one, is at most 19, and short holds: the
	// exponent, if any, has at most four digits.
	var man uint64
	nd, exp, short := 0, 0, true
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			man = man*10 + uint64(d)
		}
		nd = i - j
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		k := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			man = man*10 + uint64(d)
		}
		if i == j {
			return 0, false
		}
		nd += i - k
		exp = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		if short = j-i <= 4; short {
			e := 0
			for _, c := range b[i:j] {
				e = e*10 + int(c-'0')
			}
			if eneg {
				e = -e
			}
			exp += e
		}
		i = j
	}
	r.i = i
	switch {
	case nd == 0:
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case nd <= 19 && short:
		if f, ok := exactFloat(man, exp, neg); ok {
			return f, true
		}
		if f, ok := eiselLemire64(man, exp, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// The conversions below are ported from Go's strconv (atof.go and
// eisel_lemire.go), which carries this notice:
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the LICENSE file.

// exactPow10 holds the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat is Clinger's fast path, strconv's atof64exact: when man
// and the power of ten are exact float64s, one multiplication or
// division rounds man·10^exp correctly.
func exactFloat(man uint64, exp int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22: // exact integers are ≤ 10^15
		if exp > 22 {
			f *= exactPow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * exactPow10[exp], true
	case exp < 0 && exp >= -22:
		return f / exactPow10[-exp], true
	}
	return 0, false
}

// The powers of ten Eisel–Lemire multiplies by, 10^minPow10 to
// 10^maxPow10, the range of strconv's detailedPowersOfTen.
const (
	minPow10 = -348
	maxPow10 = 347
)

// powersOfTen returns the 128-bit mantissas of 10^minPow10 … 10^maxPow10,
// each scaled into [2^127, 2^128) and rounded down, as {low, high}
// 64-bit halves: strconv's detailedPowersOfTen, built on first use.
var powersOfTen = sync.OnceValue(func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	var buf [16]byte
	put := func(e int, m *big.Int) {
		m.FillBytes(buf[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	p := big.NewInt(1) // 10^n
	m := new(big.Int)
	for n := 0; n <= max(maxPow10, -minPow10); n++ {
		if n <= maxPow10 {
			if s := p.BitLen() - 128; s > 0 {
				m.Rsh(p, uint(s))
			} else {
				m.Lsh(p, uint(-s))
			}
			put(n, m)
		}
		if n > 0 && -n >= minPow10 {
			// 2^(127+len) / 10^n lies in (2^127, 2^128).
			m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			put(-n, m.Quo(m, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return &t
})

// eiselLemire64 is strconv's eiselLemire64 (Lemire, "Number Parsing at
// a Gigabyte per Second", 2021): man·10^exp10 rounded to a float64, or
// false when the 128-bit product cannot decide the rounding or the
// result is subnormal or infinite. man must be nonzero. The section
// names are those of https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if exp10 < minPow10 || maxPow10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-minPow10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 ≤ 0 is subnormal, ≥ 0x7FF infinite; both wrap past 0x7FE.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
