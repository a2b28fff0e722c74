// Command rcbtbench runs the repository benchmark: the real serving
// stack in-process, four workloads, every answer checked.
//
//	rcbtbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	rcbtbench -compare BASE.jsonl CHANGE.jsonl
//
// Without -workload it runs all four in turn. It prints every metric
// with its unit and ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. -trace 1 reports the per-layer metrics instead
// of the end-to-end ones and writes the spans to -trace-out. -out
// appends each run's record (with sample counts, detail metrics and the
// machine stamp) to a JSON-lines file, the input of -compare.
//
// Run it from the repository root; benchmark/run.sh builds and runs it
// the way the recorded results were made.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/benchmark"
)

// runLimit bounds one workload run, set-up and checks included.
const runLimit = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 0, "input seed; 0 uses the synthetic profiles' built-in seeds")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	out := flag.String("out", "", "append each run's record to this JSON-lines file")
	traceOut := flag.String("trace-out", ".bench_build/trace.json", "span file of a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for the runs' temporary state")
	compare := flag.Bool("compare", false, "compare two results files: -compare BASE CHANGE")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: rcbtbench -compare BASE.jsonl CHANGE.jsonl")
			return 2
		}
		base, err := benchmark.ReadRecords(flag.Arg(0))
		if err == nil {
			var change []benchmark.Record
			if change, err = benchmark.ReadRecords(flag.Arg(1)); err == nil {
				benchmark.PrintCompare(os.Stdout, benchmark.Compare(base, change))
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, "rcbtbench:", err)
		return 1
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		return 2
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range benchmark.Workloads {
			names = append(names, w.Name)
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rcbtbench:", err)
		return 1
	}
	// A layer that ignores cancellation must not hold the process past
	// its time limit.
	watchdog := time.AfterFunc(runLimit*time.Duration(len(names))+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "rcbtbench: time limit exceeded")
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := benchmark.CurrentMachine()
	fmt.Printf("machine: nproc=%d gomaxprocs=%d go=%s %s cpu=%q commit=%s\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.OSArch, m.CPU, m.Commit)
	final := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: true, Metrics: map[string]json.RawMessage{}}
	var traces []benchmark.WorkloadTrace
	for _, name := range names {
		wctx, cancel := context.WithTimeout(ctx, runLimit)
		rec, spans, err := benchmark.Run(wctx, benchmark.Options{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Dir: *workdir, Log: os.Stdout,
		})
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcbtbench:", err)
			return 1
		}
		benchmark.PrintRecord(os.Stdout, rec)
		if *out != "" {
			if err := benchmark.AppendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "rcbtbench:", err)
				return 1
			}
		}
		if *trace == 1 {
			traces = append(traces, benchmark.WorkloadTrace{
				Workload: name, Seed: *seed, Summary: benchmark.SummarizeSpans(spans), Spans: spans,
			})
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			b, err := json.Marshal(struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{v.Value, v.Unit})
			if err != nil {
				fmt.Fprintln(os.Stderr, "rcbtbench:", err)
				return 1
			}
			final.Metrics[k] = b
		}
	}
	if *trace == 1 {
		if err := benchmark.WriteTrace(*traceOut, m, traces); err != nil {
			fmt.Fprintln(os.Stderr, "rcbtbench:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", *traceOut)
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcbtbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !final.Correct {
		return 1
	}
	return 0
}
