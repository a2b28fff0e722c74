// Package benchmark is the repository's performance benchmark: it
// starts the real serving stack in-process, drives four workloads that
// each stress a different layer of the pipeline (see README.md for why
// each was chosen), checks every answer, and reports end-to-end and
// per-layer metrics. cmd/rcbtbench is its command.
package benchmark

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Workload is one named traffic mix.
type Workload struct {
	Name string
	Why  string
	run  func(ctx context.Context, r *runState) error
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{"train-wide", "raw rows in, served model out on PC/3 (102 x 4200 genes): FindLB is ~80% of training, mining ~1%", runTrainWide},
	{"train-tall", "the same on PC/30 with a 4x cohort (408 x 420 genes): mining is most of training, FindLB under 1%", runTrainTall},
	{"classify-open", "16-row raw batches in an open loop at 200 req/s, Zipf over 8192 rows (twice the cache); traced runs add closed-loop capacity and 400/800 req/s", runClassify},
	{"stream-mixed", "closed-loop 1-row appends with auto-refresh beside 50 req/s single-row reads on PC/4 (3150 genes)", runStream},
}

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Scale divides input sizes; 1 is the benchmark, 20 the smoke test.
	Scale int
	// Dir holds the run's temporary state; it must exist.
	Dir string
	// Log receives the human-readable report.
	Log io.Writer
}

// runState collects one workload run's numbers and failures.
type runState struct {
	opts      Options
	nproc     int
	window    time.Duration
	tracer    *Tracer // non-nil on a -trace run
	attempted int
	failed    int
	problems  []string
	metrics   map[string]Value
	detail    map[string]Value
	fp        *fingerprint // non-nil when the inputs are checked
	inputs    string       // the inputs' fingerprint, when checked
}

// traced returns the tracer for operation i: on a -trace run every
// other operation is traced, so traced and untraced latencies come from
// the same conditions and their difference is the tracing overhead.
func (r *runState) traced(i int) *Tracer {
	if i%2 == 0 {
		return r.tracer
	}
	return nil
}

// count records one attempted operation and its outcome.
func (r *runState) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem(err)
	}
}

// countSamples counts a generator phase's requests.
func (r *runState) countSamples(samples []Sample) {
	for _, s := range samples {
		r.count(s.Err)
	}
}

func (r *runState) problem(err error) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

// set records a contract metric (unit from its definition).
func (r *runState) set(name string, v float64, n int) {
	m, ok := lookupMetric(name)
	if !ok {
		// vetsuite:allow panic -- only a name misspelled in this package gets here
		panic("benchmark: unknown metric " + name)
	}
	r.metrics[name] = Value{Value: v, Unit: m.Unit, N: n}
}

// note records a detail metric: printed and kept in the results file,
// but not part of the contract.
func (r *runState) note(name, unit string, v float64, n int) {
	r.detail[name] = Value{Value: v, Unit: unit, N: n}
}

// setUp builds the workload's starting state on a fresh stack several
// times (see minSetups), closing all but the last, and records setup_s
// as the median. Set-up covers what a deployment pays before serving
// this traffic: opening the store, job manager and server, and the
// workload's prime (its first dataset and model).
func (r *runState) setUp(ctx context.Context, prime func(context.Context, *stack) error) (*stack, error) {
	var times []float64
	var st *stack
	spent, budget := 0.0, setupBudget.Seconds()/float64(r.opts.Scale)
	for len(times) < maxSetups && (len(times) < minSetups || spent < budget) {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = openStack(ctx, r.opts.Dir, r.nproc); err != nil {
			return nil, err
		}
		if err := prime(ctx, st); err != nil {
			st.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[len(times)-1]
	}
	r.set("setup_s", Median(times), len(times))
	return st, nil
}

// checkFingerprint compares the hashed inputs with the recorded ones.
func (r *runState) checkFingerprint() {
	if r.fp == nil {
		return
	}
	want, err := expectedFingerprints()
	if err != nil {
		r.count(err)
		return
	}
	got := r.fp.sum()
	r.inputs = got
	if want[r.opts.Workload] != got {
		r.count(fmt.Errorf("inputs of %s changed: fingerprint %s, recorded %s", r.opts.Workload, got, want[r.opts.Workload]))
		return
	}
	r.count(nil)
}

// Run executes one workload and returns its record and, on a -trace
// run, its spans. An error means the run could not be carried out;
// wrong answers are counted in the record instead.
func Run(ctx context.Context, opts Options) (Record, []Span, error) {
	var w *Workload
	for i := range Workloads {
		if Workloads[i].Name == opts.Workload {
			w = &Workloads[i]
		}
	}
	if w == nil {
		return Record{}, nil, fmt.Errorf("unknown workload %q", opts.Workload)
	}
	if opts.Scale < 1 {
		opts.Scale = 1
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	dir, err := os.MkdirTemp(opts.Dir, "run-")
	if err != nil {
		return Record{}, nil, err
	}
	defer os.RemoveAll(dir) // best effort cleanup of the run's state
	opts.Dir = dir
	r := &runState{
		opts:    opts,
		nproc:   runtime.GOMAXPROCS(0),
		window:  time.Duration(opts.Seconds * float64(time.Second)),
		metrics: map[string]Value{},
		detail:  map[string]Value{},
	}
	if opts.Trace {
		r.tracer = NewTracer()
	}
	if opts.Seed == 0 && opts.Scale == 1 {
		r.fp = newFingerprint()
	}
	if err := w.run(ctx, r); err != nil {
		return Record{}, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.checkFingerprint()
	want := EndToEnd
	if opts.Trace {
		want = PerLayer
	}
	rec := Record{
		Workload: w.Name, Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace, Scale: opts.Scale,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Inputs: r.inputs,
		Metrics: map[string]Value{}, Detail: r.detail, Machine: CurrentMachine(),
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return Record{}, nil, fmt.Errorf("%s: metric %s was not measured", w.Name, m.Name)
		}
		rec.Metrics[m.Name] = v
	}
	// On a traced run the end-to-end numbers are still worth reading.
	for name, v := range r.metrics {
		if _, ok := rec.Metrics[name]; !ok {
			rec.Detail[name] = v
		}
	}
	rec.Correct = r.failed == 0
	return rec, r.tracer.Spans(), nil
}

// PrintRecord writes a record as aligned "name value unit (n=...)"
// lines.
func PrintRecord(w io.Writer, rec Record) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g trace=%v  attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	print := func(title string, vals map[string]Value) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %s\n", title)
		for _, n := range names {
			v := vals[n]
			fmt.Fprintf(w, "    %-32s %14.6g %-8s", n, v.Value, v.Unit)
			if v.N > 0 {
				fmt.Fprintf(w, " (n=%d)", v.N)
			}
			fmt.Fprintln(w)
		}
	}
	print("metrics", rec.Metrics)
	if len(rec.Detail) > 0 {
		print("detail", rec.Detail)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}
