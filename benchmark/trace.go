package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made across a layer boundary.
// Spans of one operation share Iter; a root span has Parent 0.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Iter   int64   `json:"iter"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced operations pass nil and pay one branch.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer starts an empty trace whose times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent, iter int64) int64 {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Iter: iter, Start: now, End: now})
	return id
}

// Finish closes span id.
func (t *Tracer) Finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time (ms): its duration minus the
// part of that interval its child spans cover. Overlapping children
// (concurrent calls) are counted once.
func SelfTimes(spans []Span) map[int64]float64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		var iv [][2]float64
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curLo, curHi := 0.0, 0.0, -1.0
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
				continue
			}
			curHi = max(curHi, x[1])
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// SpanSummary is the per-name roll-up written beside the spans.
type SpanSummary struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	P50Ms      float64 `json:"p50_ms"`
	SelfP50Ms  float64 `json:"self_p50_ms"`
	SelfShare  float64 `json:"self_share"` // of all spans' summed self time
	TotalSelfS float64 `json:"total_self_s"`
}

// SummarizeSpans rolls spans up by name, ordered by total self time.
func SummarizeSpans(spans []Span) []SpanSummary {
	self := SelfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	total := 0.0
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		selfs[s.Name] = append(selfs[s.Name], self[s.ID])
		total += self[s.ID]
	}
	out := make([]SpanSummary, 0, len(durs))
	for name, d := range durs {
		sum := 0.0
		for _, v := range selfs[name] {
			sum += v
		}
		ss := SpanSummary{Name: name, Count: len(d), P50Ms: Median(d), SelfP50Ms: Median(selfs[name]), TotalSelfS: sum / 1000}
		if total > 0 {
			ss.SelfShare = sum / total
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalSelfS != out[j].TotalSelfS {
			return out[i].TotalSelfS > out[j].TotalSelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WorkloadTrace is one workload's spans in trace.json.
type WorkloadTrace struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Summary  []SpanSummary `json:"summary"`
	Spans    []Span        `json:"spans"`
}

// WriteTrace writes every traced workload's spans to path.
func WriteTrace(path string, m Machine, traces []WorkloadTrace) error {
	b, err := json.MarshalIndent(struct {
		Machine   Machine         `json:"machine"`
		Workloads []WorkloadTrace `json:"workloads"`
	}{m, traces}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
