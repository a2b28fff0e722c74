package benchmark

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "call", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "call", Start: 90, End: 120}, // outlives 1
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "op", Start: 200, End: 210},
	}
	self := SelfTimes(spans)
	// op 1: children cover [10,50] and [90,100].
	for id, want := range map[int64]float64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	sum := SummarizeSpans(spans)
	if len(sum) != 3 || sum[0].Name != "call" || sum[0].Count != 3 || sum[0].TotalSelfS != 0.07 {
		t.Fatalf("summary %+v, want call first with 3 spans and 70 ms of self time", sum)
	}
	if sum[1].Name != "op" || sum[1].SelfP50Ms != 30 || sum[1].SelfShare != 60.0/140 {
		t.Errorf("second %+v, want op with median self 30 and 60 of 140 ms", sum[1])
	}
}

func TestTracer(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	off.Finish(0)
	if off.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := NewTracer()
	root := tr.Begin("op", 0, 7)
	child := tr.Begin("call", root, 7)
	tr.Finish(child)
	tr.Finish(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Iter != 7 {
		t.Fatalf("spans %+v, want a child of %d in iteration 7", spans, root)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}
