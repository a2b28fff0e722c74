package benchmark

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/internal/jobs"
)

// window watches a traced run's measured phase from outside the
// server: prediction-cache counters from /metrics and the process's
// runtime metrics.
type window struct {
	probe *runtimeProbe
	cache counterTotals
}

// openWindow starts watching; it returns nil on an untraced run, whose
// measured phase must not pay for scrapes.
func (r *runState) openWindow(ctx context.Context, st *stack) (*window, error) {
	if r.tracer == nil {
		return nil, nil
	}
	w := &window{}
	if err := w.scrape(ctx, st); err != nil {
		return nil, err
	}
	w.probe = startProbe()
	return w, nil
}

// scrape folds the current cache counters into the totals.
func (w *window) scrape(ctx context.Context, st *stack) error {
	if w == nil {
		return nil
	}
	c, err := st.cacheCounters(ctx)
	if err != nil {
		return err
	}
	w.cache.observe(c)
	return nil
}

// closeWindow records the serve.cache_* and runtime.* metrics over the
// window; ops is the number of operations the window carried.
func (r *runState) closeWindow(ctx context.Context, st *stack, w *window, ops int) error {
	if w == nil {
		return nil
	}
	gc, alloc, peak := w.probe.finish()
	if err := w.scrape(ctx, st); err != nil {
		return err
	}
	hits, misses := w.cache.hits, w.cache.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.set("serve.cache_hit_ratio", ratio, int(hits+misses))
	r.set("serve.cache_lookups", hits+misses, 1)
	r.set("serve.cache_evictions", w.cache.evictions, 1)
	r.set("runtime.gc_cpu_ratio", gc, 1)
	r.set("runtime.alloc_mb_per_op", alloc/1e6/float64(max(ops, 1)), ops)
	r.set("runtime.peak_live_heap_mb", peak/1e6, 1)
	return nil
}

// jobTimes records the jobs.* metrics from the server's train job
// records. served reports when the client first saw a job's model, for
// the publish lag (which can be negative: the server registers a model
// just before it closes the job's record). windowStart splits set-up
// jobs from the ones the measured phase ran.
func (r *runState) jobTimes(ctx context.Context, st *stack, served func(*jobs.Record) (time.Time, bool), windowStart time.Time) error {
	recs, err := st.jobRecords(ctx)
	if err != nil {
		return err
	}
	var wait, run, lag []float64
	inWindow := 0
	for _, rec := range recs {
		if rec.Spec.Kind != jobs.KindTrain || rec.StartedAt == nil || rec.FinishedAt == nil {
			continue
		}
		if !rec.SubmittedAt.Before(windowStart) {
			inWindow++
		}
		wait = append(wait, ms(rec.StartedAt.Sub(rec.SubmittedAt)))
		run = append(run, ms(rec.FinishedAt.Sub(*rec.StartedAt)))
		if t, ok := served(rec); ok {
			lag = append(lag, ms(t.Sub(*rec.FinishedAt)))
		}
	}
	r.set("jobs.queue_wait_p50_ms", Median(wait), len(wait))
	r.set("jobs.run_p50_ms", Median(run), len(run))
	r.set("jobs.publish_lag_p50_ms", Median(lag), len(lag))
	r.set("jobs.window_trains", float64(inWindow), 1)
	return nil
}

// servedByID looks a job's served time up by job id.
func servedByID(m map[string]time.Time) func(*jobs.Record) (time.Time, bool) {
	return func(rec *jobs.Record) (time.Time, bool) {
		t, ok := m[rec.ID]
		return t, ok
	}
}

// overhead records how much slower traced operations ran than untraced
// ones (every other operation is traced) and the span count.
func (r *runState) overhead(traced, untraced []float64) {
	r.set("trace.overhead_ratio", Median(traced)/Median(untraced)-1, len(traced)+len(untraced))
	r.set("trace.spans", float64(len(r.tracer.Spans())), 1)
}

// samplesOverhead is overhead over a generator phase whose request i
// was operation base+i.
func (r *runState) samplesOverhead(samples []Sample, base int) {
	var traced, untraced []float64
	for _, s := range samples {
		if s.Err != nil {
			continue
		}
		if r.traced(base+s.Index) != nil {
			traced = append(traced, ms(s.Latency()))
		} else {
			untraced = append(untraced, ms(s.Latency()))
		}
	}
	r.overhead(traced, untraced)
}

// counterTotals sums cache counter increases across scrapes. A hot-swap
// gives the model a new, empty cache, so counters seen under a new
// dataset version count from zero; what the old cache counted after the
// last scrape before the swap is lost, which is why workloads that swap
// scrape at every poll.
type counterTotals struct {
	last                    map[string]cacheState
	hits, misses, evictions float64
}

func (c *counterTotals) observe(cur map[string]cacheState) {
	if c.last == nil {
		c.last = cur
		return
	}
	for model, s := range cur {
		prev, ok := c.last[model]
		if !ok || prev.version != s.version {
			prev = cacheState{}
		}
		c.hits += s.hits - prev.hits
		c.misses += s.misses - prev.misses
		c.evictions += s.evictions - prev.evictions
	}
	c.last = cur
}

// runtimeProbe measures the process's GC CPU share, allocation volume
// and peak live heap over a window.
type runtimeProbe struct {
	start []metrics.Sample
	peak  float64 // written by the sampler until done closes
	stop  chan struct{}
	done  chan struct{}
}

var probeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
}

func readProbe() []metrics.Sample {
	s := make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func probeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func startProbe() *runtimeProbe {
	p := &runtimeProbe{start: readProbe(), stop: make(chan struct{}), done: make(chan struct{})}
	p.peak = probeValue(p.start[3])
	go func() {
		defer close(p.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.peak = max(p.peak, probeValue(readProbe()[3]))
			}
		}
	}()
	return p
}

// finish stops the sampler and reports the window's GC share of CPU,
// bytes allocated and peak live heap bytes.
func (p *runtimeProbe) finish() (gcRatio, allocBytes, peakLive float64) {
	close(p.stop)
	<-p.done
	end := readProbe()
	d := func(i int) float64 { return probeValue(end[i]) - probeValue(p.start[i]) }
	if total := d(1); total > 0 {
		gcRatio = d(0) / total
	}
	return gcRatio, d(2), max(p.peak, probeValue(end[3]))
}
