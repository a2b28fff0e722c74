package discretize

// Cut-point diffing: how far an append moved the discretization.
// The datastore reports len(DiffCuts(old, new)) as a snapshot's
// RefreshStats.ChangedGenes.
//
// Equality here is exact float64 equality on purpose: cut points are
// deterministic midpoints computed by stats.BestBinarySplit, so two
// fits over identical data produce bit-identical cuts, and any
// difference — however small — moves at least one row across an
// interval boundary in principle.

// EqualCuts reports whether two cut-point lists are identical
// (same length, same values, element-wise).
func EqualCuts(a, b []float64) bool {
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

// DiffCuts returns the indices of genes whose cut lists differ between
// the two fits, in ascending order. The slices may have different
// lengths (a schema change); every index present in only one of them is
// reported as changed.
func DiffCuts(old, new [][]float64) []int {
	n := len(old)
	if len(new) > n {
		n = len(new)
	}
	var changed []int
	for g := 0; g < n; g++ {
		var a, b []float64
		if g < len(old) {
			a = old[g]
		}
		if g < len(new) {
			b = new[g]
		}
		if !EqualCuts(a, b) {
			changed = append(changed, g)
		}
	}
	return changed
}
