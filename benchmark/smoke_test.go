package benchmark

import (
	"context"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end, untraced and traced, on
// inputs a twentieth of the benchmark's size for a fraction of a second.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stack")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			rec, spans, err := Run(ctx, Options{
				Workload: w.Name, Seed: 1, Seconds: 0.3, Trace: trace, Scale: 20, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, trace, rec.Attempted, rec.Failed, rec.Problems)
			}
			want := EndToEnd
			if trace {
				want = PerLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.Name, m.Name, v, m.Unit)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}
