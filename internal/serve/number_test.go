package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// floatByStrconv reads a number the two-pass way: number checks the
// grammar, then strconv.ParseFloat converts the literal, as
// encoding/json does. It returns the value, where the cursor stops, and
// whether the number is accepted.
func floatByStrconv(b []byte) (float64, int, bool) {
	r := reader{b: b}
	lit, ok := r.number()
	if !ok {
		return 0, r.i, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, r.i, err == nil
}

// numberMismatch reports how reader.float reads b differently from
// floatByStrconv: accepting or declining, the cursor, or the bits.
func numberMismatch(b []byte) string {
	want, wantEnd, wantOK := floatByStrconv(b)
	r := reader{b: b}
	got, gotOK := r.float()
	if gotOK != wantOK || r.i != wantEnd || gotOK && math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("float %v ok=%v end=%d, strconv %v ok=%v end=%d", got, gotOK, r.i, want, wantOK, wantEnd)
	}
	return ""
}

// numberLiterals are edge cases of the conversion: zeros, the largest
// and smallest float64s and their neighbours beyond, a subnormal just
// under the normal range, and 2^53+1, a halfway case.
var numberLiterals = []string{
	"0", "-0", "0e0", "-0.0e5", "1E+2", "1e400", "1e-400",
	"4.9406564584124654e-324", "2.2250738585072011e-308",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"9007199254740993", "0.30000000000000004", "-123.456e-7",
	"1e-22", "1e22", "1e23", "123456789e30", "0.000001", "1e0000002",
	"1e00004", "12345678901234567890", "1234567890123456789012345",
	" \n\t1.5,", "2]",
}

// numberDeclines are literals the reader's grammar stops short of or
// rejects; none of them is a whole JSON number, and declineBodies holds
// values arrays of the common ones.
var numberDeclines = []string{
	"00", "01", "1.", ".1", "1e", "-", "+1", "Inf", "0x1p-2", "1_0",
	"-.5", "1e+", "1.e5", "--1", "NaN",
}

// numberGen draws literals from one seeded source.
type numberGen struct{ rng *rand.Rand }

// digits returns n random decimal digits, the first one nonzero.
func (g numberGen) digits(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(g.rng.Intn(10))
	}
	b[0] = '1' + byte(g.rng.Intn(9))
	return string(b)
}

// literal writes the digits ds times 10^exp10 as a JSON number with a
// random sign, decimal point, leading fraction zeros, exponent letter
// and exponent sign.
func (g numberGen) literal(ds string, exp10 int) string {
	var sb strings.Builder
	if g.rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	point := g.rng.Intn(len(ds) + 1) // digits before the point
	frac := len(ds) - point
	switch {
	case point == len(ds):
		sb.WriteString(ds)
	case point == 0:
		zeros := g.rng.Intn(4)
		sb.WriteString("0." + strings.Repeat("0", zeros) + ds)
		frac += zeros
	default:
		sb.WriteString(ds[:point] + "." + ds[point:])
	}
	e := exp10 + frac
	if e == 0 && g.rng.Intn(2) == 0 {
		return sb.String()
	}
	sb.WriteByte("eE"[g.rng.Intn(2)])
	if e >= 0 && g.rng.Intn(2) == 0 {
		sb.WriteByte('+')
	}
	sb.WriteString(strconv.Itoa(e))
	return sb.String()
}

// TestNumberMatchesStrconv compares reader.float with number plus
// strconv.ParseFloat on every exponent Eisel–Lemire covers with random
// 1–19-digit mantissas, on 20–30-digit mantissas, on random float64s in
// the 'g', 'e' and 'f' formats, and on the edge cases and declines
// above. Each of float's conversions must be reached: Clinger's fast
// path, Eisel–Lemire and the strconv fallback.
func TestNumberMatchesStrconv(t *testing.T) {
	perExp, perFormat := 24, 20000
	if raceEnabled {
		perExp, perFormat = 4, 2000
	}
	g := numberGen{rand.New(rand.NewSource(1))}
	var lits []string
	var clinger, lemire, fallback int
	for e := minPow10; e <= maxPow10; e++ {
		for range perExp {
			ds := g.digits(1 + g.rng.Intn(19))
			lits = append(lits, g.literal(ds, e))
			man, _ := strconv.ParseUint(ds, 10, 64)
			if _, ok := exactFloat(man, e, false); ok {
				clinger++
			} else if _, ok := eiselLemire64(man, e, false); ok {
				lemire++
			} else {
				fallback++
			}
		}
	}
	for range perExp * 20 {
		lits = append(lits, g.literal(g.digits(20+g.rng.Intn(11)), g.rng.Intn(700)-350))
	}
	for range perFormat {
		f := math.Float64frombits(g.rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		lits = append(lits,
			strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'e', g.rng.Intn(25)-1, 64),
			strconv.FormatFloat(g.rng.NormFloat64()*math.Pow(10, float64(g.rng.Intn(30)-15)), 'f', -1, 64))
	}
	lits = append(append(lits, numberLiterals...), numberDeclines...)
	for _, lit := range lits {
		if msg := numberMismatch([]byte(lit)); msg != "" {
			t.Fatalf("%q: %s", lit, msg)
		}
	}
	t.Logf("%d literals; of the exponent sweep %d take Clinger's path, %d Eisel–Lemire, %d fall back", len(lits), clinger, lemire, fallback)
	if clinger == 0 || lemire == 0 || fallback == 0 {
		t.Errorf("a conversion path is never reached: Clinger %d, Eisel–Lemire %d, fallback %d", clinger, lemire, fallback)
	}
}

// TestPowersOfTenEntries pins entries of the built table to strconv's
// detailedPowersOfTen: both ends, powers near 10^0, and 10^56, the
// first positive power that 128 bits do not hold exactly. A table
// rounded up instead of down still converts almost every number
// correctly, so TestNumberMatchesStrconv does not catch it.
func TestPowersOfTenEntries(t *testing.T) {
	for e, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-27:  {0x775EA264CF55347D, 0x9E74D1B791E07E48},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x0000000000000000, 0x8000000000000000},
		1:    {0x0000000000000000, 0xA000000000000000},
		56:   {0xBFF8F10E7A8921A4, 0x82818F1281ED449F},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen()[e-minPow10]; got != want {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", e, got[0], got[1], want[0], want[1])
		}
	}
}

// FuzzNumber: on any bytes, reader.float accepts or declines as number
// plus strconv.ParseFloat do, stops where they stop and gives their
// bits.
func FuzzNumber(f *testing.F) {
	for _, lit := range numberLiterals {
		f.Add([]byte(lit))
	}
	for _, lit := range numberDeclines {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if msg := numberMismatch(b); msg != "" {
			t.Fatalf("%q: %s", b, msg)
		}
	})
}
