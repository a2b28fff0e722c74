package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEntropy(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 0}, 0},
		{[]int{5, 0}, 0},
		{[]int{1, 1}, 1},
		{[]int{2, 2, 2, 2}, 2},
		{[]int{3, 1}, -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))},
	}
	for _, c := range cases {
		if got := Entropy(c.counts); !almostEqual(got, c.want) {
			t.Errorf("Entropy(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	// 0 <= H <= log2(k) for any count vector with k classes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		counts := make([]int, k)
		for i := range counts {
			counts[i] = r.Intn(50)
		}
		h := Entropy(counts)
		return h >= -1e-12 && h <= math.Log2(float64(k))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestBinarySplitSeparable(t *testing.T) {
	vs := []LabeledValue{
		{1, 0}, {2, 0}, {3, 0}, {10, 1}, {11, 1},
	}
	cut, gain, ok := BestBinarySplit(vs, 2)
	if !ok {
		t.Fatal("expected a split")
	}
	if !almostEqual(cut, 6.5) {
		t.Fatalf("cut = %v, want 6.5", cut)
	}
	wantGain := Entropy([]int{3, 2})
	if !almostEqual(gain, wantGain) {
		t.Fatalf("gain = %v, want %v (perfect split)", gain, wantGain)
	}
}

func TestBestBinarySplitNoCut(t *testing.T) {
	if _, _, ok := BestBinarySplit([]LabeledValue{{5, 0}, {5, 1}, {5, 0}}, 2); ok {
		t.Fatal("identical values admit no cut")
	}
	if _, _, ok := BestBinarySplit([]LabeledValue{{1, 0}}, 2); ok {
		t.Fatal("single sample admits no cut")
	}
	if _, _, ok := BestBinarySplit(nil, 2); ok {
		t.Fatal("empty input admits no cut")
	}
}

func TestBestBinarySplitCutBetweenValues(t *testing.T) {
	// Property: the returned cut must lie strictly between two observed
	// distinct values, and gain must be within [0, H(labels)].
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		vs := make([]LabeledValue, n)
		for i := range vs {
			vs[i] = LabeledValue{Value: float64(r.Intn(10)), Label: r.Intn(2)}
		}
		SortLabeledValues(vs)
		cut, gain, ok := BestBinarySplit(vs, 2)
		if !ok {
			return true
		}
		counts := []int{0, 0}
		for _, v := range vs {
			counts[v.Label]++
		}
		if gain < -1e-9 || gain > Entropy(counts)+1e-9 {
			return false
		}
		below, above := false, false
		for _, v := range vs {
			if v.Value < cut {
				below = true
			}
			if v.Value > cut {
				above = true
			}
			if v.Value == cut {
				return false // cuts are midpoints, never observed values
			}
		}
		return below && above
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyScore(t *testing.T) {
	// Perfectly separable gene has score = H(class); useless gene ~0.
	values := []float64{1, 2, 3, 10, 11, 12}
	labels := []int{0, 0, 0, 1, 1, 1}
	if got := EntropyScore(values, labels, 2); !almostEqual(got, 1) {
		t.Fatalf("separable score = %v, want 1", got)
	}
	flat := []float64{5, 5, 5, 5, 5, 5}
	if got := EntropyScore(flat, labels, 2); got != 0 {
		t.Fatalf("flat gene score = %v, want 0", got)
	}
}

func TestChiSquare(t *testing.T) {
	// Independent table → 0.
	if got := ChiSquare([][]int{{10, 10}, {20, 20}}); !almostEqual(got, 0) {
		t.Fatalf("independent chi2 = %v", got)
	}
	// Known value: 2x2 table {{10,20},{30,40}}.
	// chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)) = 100*(400-600)^2/(30*70*40*60)
	want := 100.0 * 200 * 200 / (30 * 70 * 40 * 60)
	if got := ChiSquareBinary(10, 20, 30, 40); !almostEqual(got, want) {
		t.Fatalf("chi2 = %v, want %v", got, want)
	}
	if got := ChiSquare(nil); got != 0 {
		t.Fatalf("empty chi2 = %v", got)
	}
	if got := ChiSquare([][]int{{0, 0}, {0, 0}}); got != 0 {
		t.Fatalf("zero chi2 = %v", got)
	}
}

func TestChiSquareNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := [][]int{
			{r.Intn(30), r.Intn(30)},
			{r.Intn(30), r.Intn(30)},
		}
		return ChiSquare(tab) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	scores := []float64{0.5, 2.0, 1.0, 2.0, 0.1}
	got := Rank(scores)
	// Descending: 2.0 (tie, rank 1), 1.0 rank 3, 0.5 rank 4, 0.1 rank 5.
	want := []int{4, 1, 3, 1, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v", got, want)
	}
	if got := Rank(nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

func TestSortLabeledValuesDeterministic(t *testing.T) {
	vs := []LabeledValue{{1, 1}, {1, 0}, {0, 1}}
	SortLabeledValues(vs)
	want := []LabeledValue{{0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(vs, want) {
		t.Fatalf("sorted = %v, want %v", vs, want)
	}
}
