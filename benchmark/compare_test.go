package benchmark

import "testing"

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := Metric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	wide := []float64{70, 130, 90, 110, 80, 120, 100, 60, 140, 100}
	for _, tc := range []struct {
		name         string
		m            Metric
		base, change []float64
		want         string
	}{
		{"faster on every pair", lower, tight, scaled(tight, 0.8), Improved},
		{"slower beyond the bound", lower, tight, scaled(tight, 1.3), Regressed},
		{"slower within the bound", lower, tight, scaled(tight, 1.05), Unchanged},
		{"better median but 8 wins in 10", lower, tight,
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 102, 102}, Unchanged},
		{"noise wider than the bound", lower, wide, scaled(wide, 1.05), Unresolved},
		{"wide but fully separated", lower, wide, scaled(wide, 3), Regressed},
		{"higher is better: more", higher, tight, scaled(tight, 1.3), Improved},
		{"higher is better: less", higher, tight, scaled(tight, 0.7), Regressed},
		{"no runs", lower, nil, tight, Unresolved},
	} {
		if got := Judge(tc.m, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	rec := func(workload string, v float64, trace bool) Record {
		return Record{Workload: workload, Trace: trace, Metrics: map[string]Value{
			"op_p50_ms":   {Value: v, Unit: "ms"},
			"core.nodes":  {Value: 1, Unit: "count"}, // no bound: not compared
			"not.defined": {Value: 1},
		}}
	}
	base := []Record{rec("a", 100, false), rec("a", 101, false), rec("a", 1000, true), rec("b", 50, false)}
	change := []Record{rec("a", 200, false), rec("a", 201, false)}
	rows := Compare(base, change)
	if len(rows) != 1 {
		t.Fatalf("rows %+v, want only a/op_p50_ms (b has no change runs; traced runs are skipped)", rows)
	}
	if r := rows[0]; r.Workload != "a" || r.Metric != "op_p50_ms" || r.BaseMed != 100.5 || r.Verdict != Regressed {
		t.Errorf("row %+v, want a/op_p50_ms base 100.5 regressed", r)
	}
}
