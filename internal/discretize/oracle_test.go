package discretize

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

// The parallel fit must learn exactly the cut points referenceFit
// learns, whatever the number of goroutines: cut points decide every
// item, so any drift changes datasets and models. The tests below
// compare the two on every synthetic profile the benchmark and the
// experiments fit, pin the allocation saving that motivated the
// rewrite, and pin the fixes for the two defects referenceFit keeps.

// oracleWorkers are the goroutine counts every fit is repeated at: one,
// the two of a small host, and more than the genes of some inputs.
var oracleWorkers = []int{1, 2, 7}

// oracleProfiles are ALL, LC, OC and PC at a third, a tenth and a
// thirtieth of their genes, the benchmark's PC/30 with a 4× cohort
// (train-tall) and PC/4 (stream-mixed).
func oracleProfiles() []synth.Profile {
	var ps []synth.Profile
	for _, p := range synth.Profiles() {
		for _, f := range []int{3, 10, 30} {
			ps = append(ps, synth.Scaled(p, f))
		}
	}
	tall := synth.Scaled(synth.PC(), 30)
	tall.Name += "x4"
	tall.Train1 *= 4
	tall.Train0 *= 4
	return append(ps, tall, synth.Scaled(synth.PC(), 4))
}

func TestFitOracleAcrossWorkers(t *testing.T) {
	for _, p := range oracleProfiles() {
		t.Run(strings.ReplaceAll(p.Name, "/", "_"), func(t *testing.T) {
			train, _, err := synth.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceFit(train)
			for _, workers := range oracleWorkers {
				dz, err := fitMatrix(train, workers)
				if err != nil {
					t.Fatal(err)
				}
				checkCutsEqual(t, workers, dz.Cuts, want)
			}
		})
	}
}

// checkCutsEqual fails the test unless got deep-equals want, naming
// the first gene that differs.
func checkCutsEqual(t *testing.T, workers int, got, want [][]float64) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d workers: %d genes fitted, want %d", workers, len(got), len(want))
	}
	for g := range want {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("%d workers: gene %d cuts %v, referenceFit %v", workers, g, got[g], want[g])
		}
	}
}

// TestFitAllocsFarBelowReference pins a PC/10 fit at a twentieth of
// referenceFit's allocations or fewer. referenceFit makes about 156,000
// there, 124 per gene, most of them the right-hand class counts of
// every boundary and the maps of every MDL check; the fit makes about
// 2,100.
func TestFitAllocsFarBelowReference(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds in normal builds")
	}
	train, _, err := synth.Generate(synth.Scaled(synth.PC(), 10))
	if err != nil {
		t.Fatal(err)
	}
	ref := testing.AllocsPerRun(1, func() { referenceFit(train) })
	fit := testing.AllocsPerRun(1, func() {
		if _, err := FitMatrix(train); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PC/10 fit: %.0f allocs, referenceFit %.0f", fit, ref)
	if fit*20 > ref {
		t.Errorf("PC/10 fit: %.0f allocs, referenceFit %.0f; want at most a twentieth", fit, ref)
	}
}

// threeClassMatrix draws a 90-row, 3-class matrix whose genes shift
// with the class by graded amounts, so MDL accepts one, two or no cuts.
func threeClassMatrix() *dataset.Matrix {
	r := rand.New(rand.NewSource(3))
	const rows, genes = 90, 60
	m := &dataset.Matrix{
		GeneNames:  make([]string, genes),
		ClassNames: []string{"a", "b", "c"},
	}
	for g := range m.GeneNames {
		m.GeneNames[g] = "g" + string(rune('A'+g%26)) + string(rune('a'+g/26))
	}
	for i := 0; i < rows; i++ {
		l := i % 3
		row := make([]float64, genes)
		for g := range row {
			shift := float64(g%4) * 0.6 * float64(l)
			row[g] = math.Round((r.NormFloat64()+shift)*8) / 8
		}
		m.Values = append(m.Values, row)
		m.Labels = append(m.Labels, dataset.Label(l))
	}
	return m
}

// TestThreeClassFitDeterministicAcrossWorkers fits a 3-class matrix 20
// times at each worker count and wants one result. referenceFit summed
// each entropy in map iteration order, which with three classes can
// change its last bit from call to call.
func TestThreeClassFitDeterministicAcrossWorkers(t *testing.T) {
	m := threeClassMatrix()
	first, err := fitMatrix(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumSelectedGenes() == 0 {
		t.Fatal("no gene of the 3-class matrix gets a cut")
	}
	for _, workers := range oracleWorkers {
		for i := 0; i < 20; i++ {
			dz, err := fitMatrix(m, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkCutsEqual(t, workers, dz.Cuts, first.Cuts)
		}
	}
}

// TestMDLEntropyTermOneBitPattern computes the MDL threshold of a
// 3-class segment with class counts (1, 2, 3) 100 times and wants one
// bit pattern. Summed in map iteration order, H(1, 2, 3) took two.
func TestMDLEntropyTermOneBitPattern(t *testing.T) {
	s, s1, s2 := []int{1, 2, 3}, []int{1, 2, 0}, []int{0, 0, 3}
	h := map[uint64]bool{}
	thr := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		h[math.Float64bits(stats.Entropy(s))] = true
		thr[math.Float64bits(mdlThreshold(s, s1, s2))] = true
	}
	if len(h) != 1 || len(thr) != 1 {
		t.Fatalf("H(1,2,3) took %d bit patterns and the threshold %d over 100 calls, want 1 each", len(h), len(thr))
	}
}
