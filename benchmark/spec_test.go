package benchmark

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// spec is the layout of BENCHMARK.json at the repository root.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// TestSpecMatchesCode keeps BENCHMARK.json and the tables in this
// package identical, and within the limits the file format sets.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(s.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(s.Workloads), len(Workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: file %+v, code %q %q", i, w, Workloads[i].Name, Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file, code []Metric) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s %d: file %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", s.EndToEnd, EndToEnd)
	same("per_layer", s.PerLayer, PerLayer)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	largest := 0.0
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %+v: bad or repeated name or unit", m)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	for _, w := range Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q: bad or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, _ := lookupMetric("setup_s"); m.Unit != "s" || m.Better != "lower" || m.Bound != largest {
		t.Errorf("setup_s %+v: want unit s, lower, and the largest bound %v", m, largest)
	}
	for _, m := range PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
}
