package discretize

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// FuzzDiscretize decodes a small labeled expression matrix from fuzz
// bytes, fits the MDL discretizer on it and checks the structural
// invariants the miner depends on: cut points sorted and finite, each
// cut in (a, b] of two adjacent training values a < b (its midpoint when
// that lies there, b otherwise), every item of a kept gene holding a
// training value, items covering the real line gene by gene, Transform
// mapping every training value into an interval that actually contains
// it, and RowItems agreeing with Transform. On quarter-step values,
// whose midpoints are exact, the cuts must also deep-equal
// referenceFit's; the other value modes draw the adjacent floats and
// huge values on which referenceFit recurses forever.
func FuzzDiscretize(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 0, 1, 10, 200, 30, 40, 50, 60, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 2, 0, 1, 128, 128})
	f.Add([]byte{2, 6, 0, 0, 1, 1, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// One gene, ten rows, the classes on two values whose midpoint
	// rounds up to the larger (mode 1), rounds down to the smaller
	// (mode 1) and overflows (mode 2).
	f.Add([]byte{6, 8, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{6, 8, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1})
	f.Add([]byte{12, 8, 0, 13, 1, 15, 0, 13, 1, 15, 0, 13, 1, 15, 0, 13, 1, 15, 0, 13, 1, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, exact := decodeMatrix(data)
		if m == nil {
			return
		}
		dz, err := FitMatrix(m)
		if err != nil {
			t.Fatalf("FitMatrix rejected a valid matrix: %v", err)
		}
		if exact {
			checkCutsEqual(t, runtime.GOMAXPROCS(0), dz.Cuts, referenceFit(m))
		}

		for g, cuts := range dz.Cuts {
			if !sort.Float64sAreSorted(cuts) {
				t.Fatalf("gene %d cuts not sorted: %v", g, cuts)
			}
			for i, c := range cuts {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					t.Fatalf("gene %d has non-finite cut %v", g, c)
				}
				checkCutInGap(t, m, g, c)
				hi := math.Inf(1)
				if i+1 < len(cuts) {
					hi = cuts[i+1]
				}
				if !anyValueIn(m, g, c, hi) {
					t.Fatalf("gene %d: no training value in item [%v,%v)", g, c, hi)
				}
			}
			if len(cuts) > 0 && !anyValueIn(m, g, math.Inf(-1), cuts[0]) {
				t.Fatalf("gene %d: no training value below the first cut %v", g, cuts[0])
			}
		}

		d, err := dz.Transform(m)
		if err != nil {
			t.Fatalf("Transform on the training matrix: %v", err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("transformed dataset invalid: %v", err)
		}
		for r, row := range d.Rows {
			if !sort.IntsAreSorted(row) {
				t.Fatalf("row %d items not sorted: %v", r, row)
			}
			if want := dz.RowItems(m.Values[r]); !equalInts(row, want) {
				t.Fatalf("row %d: Transform %v != RowItems %v", r, row, want)
			}
			for _, it := range row {
				item := d.Items[it]
				v := m.Values[r][item.Gene]
				if v < item.Lo || v >= item.Hi {
					t.Fatalf("row %d gene %d: value %v outside item interval [%v,%v)",
						r, item.Gene, v, item.Lo, item.Hi)
				}
			}
		}
	})
}

// checkCutInGap fails the test unless cut c of gene g lies where the
// split search puts it: with a the largest training value below c and
// b the smallest at or above it, c is (a+b)/2 when that lies in (a, b]
// and b otherwise.
func checkCutInGap(t *testing.T, m *dataset.Matrix, g int, c float64) {
	t.Helper()
	var a, b float64
	below, above := false, false
	for _, row := range m.Values {
		if v := row[g]; v < c {
			if !below || v > a {
				a, below = v, true
			}
		} else if !above || v < b {
			b, above = v, true
		}
	}
	if !below || !above {
		t.Fatalf("gene %d: cut %v leaves every training value on one side", g, c)
	}
	want := (a + b) / 2
	if !(want > a && want <= b) {
		want = b
	}
	if c != want {
		t.Fatalf("gene %d: cut %v between training values %v and %v, want %v", g, c, a, b, want)
	}
}

// anyValueIn reports whether some training value of gene g lies in
// [lo, hi).
func anyValueIn(m *dataset.Matrix, g int, lo, hi float64) bool {
	for _, row := range m.Values {
		if v := row[g]; v >= lo && v < hi {
			return true
		}
	}
	return false
}

// decodeMatrix builds a valid two-class matrix from fuzz bytes, or nil
// when the input is too short to define one. Layout: a header byte for
// the gene count and value mode, numRows, then one label byte per row,
// then one value byte per cell. Each mode draws 16 values, so equal
// values occur often (ties are where the cut placement logic is
// subtle):
//
//   - 0: multiples of 1/4 in [0, 4), with -0 beside +0. Midpoints are
//     exact, and exact reports true.
//   - 1: 1 and the next 15 floats above it, whose midpoints round to
//     one end or the other.
//   - 2: multiples of 0.2e308 in [-1.6e308, 1.4e308], whose sums can
//     overflow.
func decodeMatrix(data []byte) (m *dataset.Matrix, exact bool) {
	if len(data) < 2 {
		return nil, false
	}
	numGenes := int(data[0])%6 + 1
	mode := int(data[0]) / 6 % 3
	numRows := int(data[1])%10 + 2
	data = data[2:]
	if len(data) < numRows*(numGenes+1) {
		return nil, false
	}
	m = &dataset.Matrix{
		GeneNames:  make([]string, numGenes),
		ClassNames: []string{"C", "notC"},
	}
	for g := range m.GeneNames {
		m.GeneNames[g] = "g" + string(rune('A'+g))
	}
	for r := 0; r < numRows; r++ {
		m.Labels = append(m.Labels, dataset.Label(data[0]%2))
		data = data[1:]
		row := make([]float64, numGenes)
		for g := range row {
			row[g] = decodeValue(mode, data[g])
		}
		data = data[numGenes:]
		m.Values = append(m.Values, row)
	}
	return m, mode == 0
}

// decodeValue maps one fuzz byte to a value of the given mode.
func decodeValue(mode int, b byte) float64 {
	step := int(b) % 16
	switch mode {
	case 1:
		return math.Float64frombits(math.Float64bits(1) + uint64(step))
	case 2:
		return float64(step-8) * 0.2e308
	}
	if step == 0 && b&0x80 != 0 {
		return math.Copysign(0, -1)
	}
	return float64(step) / 4
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
