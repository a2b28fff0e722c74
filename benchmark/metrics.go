package benchmark

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Metric defines one reported number. Bound (end-to-end metrics only)
// is the share of the parent's median by which it may worsen before a
// change counts as a regression. BENCHMARK.json at the repository root
// carries the same table; a test keeps the two equal.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the numbers a user of the service sees. Every workload
// reports each of them; what "op" is differs per workload (see
// README.md).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// PerLayer are the layer numbers of a -trace run.
var PerLayer = []Metric{
	{Name: "discretize.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "discretize.transform_ms", Unit: "ms", Better: "lower"},
	{Name: "discretize.rowitems_us", Unit: "us", Better: "lower"},
	{Name: "dataset.index_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mine_seq_ms", Unit: "ms", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.nodes", Unit: "count", Better: "lower"},
	{Name: "core.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.groups", Unit: "count", Better: "lower"},
	{Name: "core.backward_pruned", Unit: "count", Better: "higher"},
	{Name: "core.bound_pruned", Unit: "count", Better: "higher"},
	{Name: "lowerbound.findall_ms", Unit: "ms", Better: "lower"},
	{Name: "lowerbound.groups", Unit: "count", Better: "lower"},
	{Name: "lowerbound.rules", Unit: "count", Better: "lower"},
	{Name: "rcbt.train_ms", Unit: "ms", Better: "lower"},
	{Name: "rcbt.train_seq_ms", Unit: "ms", Better: "lower"},
	{Name: "rcbt.select_other_ms", Unit: "ms", Better: "lower"},
	{Name: "rcbt.save_ms", Unit: "ms", Better: "lower"},
	{Name: "rcbt.model_kb", Unit: "KiB", Better: "lower"},
	{Name: "rcbt.batch_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "jobs.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.publish_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.window_trains", Unit: "count", Better: "lower"},
	{Name: "datastore.create_ms", Unit: "ms", Better: "lower"},
	{Name: "datastore.append_build_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "datastore.fast_path_ratio", Unit: "ratio", Better: "higher"},
	{Name: "datastore.changed_genes_p50", Unit: "count", Better: "lower"},
	{Name: "serve.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_lookups", Unit: "count", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.peak_live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// lookupMetric finds a metric definition by name.
func lookupMetric(name string) (Metric, bool) {
	for _, set := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Value is one measured number with its unit and sample count.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Machine stamps every result with what it ran on.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// CurrentMachine reads the stamp of this process. The CPU model comes
// from /proc/cpuinfo where it exists; the commit from the VCS stamp go
// build embeds when it builds inside a git checkout.
func CurrentMachine() Machine {
	m := Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "+dirty"
		}
	}
	return m
}

// Record is one workload run as appended to a results file (-out): the
// numbers the final JSON line carries plus sample counts, the detail
// metrics and the machine stamp.
type Record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Scale     int              `json:"scale"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	Detail    map[string]Value `json:"detail,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
	Inputs    string           `json:"inputs,omitempty"` // sha256 of seed-0 inputs
	Machine   Machine          `json:"machine"`
}

// AppendRecord adds rec as one JSON line to path.
func AppendRecord(path string, rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// ReadRecords loads a results file written by AppendRecord.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
