package benchmark

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of Judge.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Judge compares one metric's runs on the parent (base) with its runs on
// a change, index i of each side forming a pair:
//
//   - unresolved: either side's spread is wider than the bound and the
//     runs do not all separate (every change run better, or every one
//     worse, than every base run);
//   - improved: the change's median is better, it wins at least nine in
//     ten pairs, and the medians differ by more than the base's
//     interquartile distance;
//   - regressed: the change's median is worse than the base's by more
//     than the bound;
//   - unchanged: otherwise.
func Judge(m Metric, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return Unresolved
	}
	// Orient values so that smaller is better.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	mb, mc := Median(base), Median(change)
	worse := sign * (mc - mb) / math.Abs(mb)
	bMin, bMax := minMax(base, sign)
	cMin, cMax := minMax(change, sign)
	separated := cMax < bMin || cMin > bMax
	if max(Spread(base), Spread(change)) > m.Bound && !separated {
		return Unresolved
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*change[i] < sign*base[i] {
			wins++
		}
	}
	q1, q3 := Quartiles(base)
	if worse < 0 && wins*10 >= pairs*9 && math.Abs(mc-mb) > q3-q1 {
		return Improved
	}
	if worse > m.Bound {
		return Regressed
	}
	return Unchanged
}

// minMax returns the smallest and largest oriented values.
func minMax(xs []float64, sign float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, sign*x), max(hi, sign*x)
	}
	return lo, hi
}

// CompareRow is one workload/metric pair of a comparison.
type CompareRow struct {
	Workload, Metric   string
	Base, Change       []float64
	BaseMed, ChangeMed float64
	Verdict            string
}

// Compare judges every end-to-end metric of every workload that both
// record sets ran untraced.
func Compare(base, change []Record) []CompareRow {
	collect := func(recs []Record) map[[2]string][]float64 {
		out := map[[2]string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			for name, v := range r.Metrics {
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	b, c := collect(base), collect(change)
	var rows []CompareRow
	for k, bv := range b {
		cv, ok := c[k]
		m, known := lookupMetric(k[1])
		if !ok || !known || m.Bound == 0 {
			continue
		}
		rows = append(rows, CompareRow{
			Workload: k[0], Metric: k[1], Base: bv, Change: cv,
			BaseMed: Median(bv), ChangeMed: Median(cv),
			Verdict: Judge(m, bv, cv),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

// PrintCompare writes one line per row.
func PrintCompare(w io.Writer, rows []CompareRow) {
	fmt.Fprintf(w, "%-14s %-12s %6s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "runs", "base", "change", "delta", "spread", "bound", "verdict")
	for _, r := range rows {
		m, _ := lookupMetric(r.Metric)
		fmt.Fprintf(w, "%-14s %-12s %3d/%-2d %12.4g %12.4g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, len(r.Base), len(r.Change), r.BaseMed, r.ChangeMed,
			100*(r.ChangeMed-r.BaseMed)/r.BaseMed,
			100*max(Spread(r.Base), Spread(r.Change)), 100*m.Bound, r.Verdict)
	}
}
