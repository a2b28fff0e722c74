package discretize

import (
	"reflect"
	"testing"
)

func TestEqualAndDiffCuts(t *testing.T) {
	if !EqualCuts(nil, nil) || !EqualCuts([]float64{1, 2}, []float64{1, 2}) {
		t.Fatal("EqualCuts rejects equal lists")
	}
	if EqualCuts([]float64{1}, []float64{1, 2}) || EqualCuts([]float64{1}, []float64{1.5}) {
		t.Fatal("EqualCuts accepts differing lists")
	}

	old := [][]float64{{1}, nil, {2, 3}}
	cur := [][]float64{{1}, {5}, {2, 4}}
	if got := DiffCuts(old, cur); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("DiffCuts = %v, want [1 2]", got)
	}
	if got := DiffCuts(old, old); got != nil {
		t.Fatalf("DiffCuts(x,x) = %v, want nil", got)
	}
	// Length mismatch: the extra gene is changed.
	if got := DiffCuts([][]float64{{1}}, [][]float64{{1}, {2}}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("DiffCuts length mismatch = %v, want [1]", got)
	}
}
