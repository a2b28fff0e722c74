package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
)

// latencyBuckets are the upper bounds (seconds) of the request latency
// histogram, chosen for a CPU-bound classifier: most single-row
// predictions land well under a millisecond, batch requests and cold
// models in the tail.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metrics is the per-Server metric registry. Everything is owned by
// the Server instance rather than a process-global registry so that
// tests can spin up many servers without duplicate-registration
// panics, and exposition stays allocation-light on the hot path.
type metrics struct {
	inFlight atomic.Int64

	mu          sync.Mutex
	requests    map[string]uint64 // "path|code" -> count
	predictions map[string]uint64 // "model|class" -> count

	bucketCounts []atomic.Uint64 // parallel to latencyBuckets, plus +Inf at the end
	latencyCount atomic.Uint64
	latencySumNs atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[string]uint64),
		predictions:  make(map[string]uint64),
		bucketCounts: make([]atomic.Uint64, len(latencyBuckets)+1),
	}
}

func (m *metrics) recordRequest(path string, code int, elapsed time.Duration) {
	key := path + "|" + strconv.Itoa(code)
	m.mu.Lock()
	m.requests[key]++
	m.mu.Unlock()

	secs := elapsed.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, secs)
	m.bucketCounts[i].Add(1)
	m.latencyCount.Add(1)
	m.latencySumNs.Add(uint64(elapsed.Nanoseconds()))
}

func (m *metrics) recordPrediction(model, class string) {
	key := model + "|" + class
	m.mu.Lock()
	m.predictions[key]++
	m.mu.Unlock()
}

// writeProm renders the registry in the Prometheus text exposition
// format (version 0.0.4), the lingua franca every scraper accepts.
func (m *metrics) writeProm(w io.Writer) {
	m.mu.Lock()
	requests := make(map[string]uint64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	predictions := make(map[string]uint64, len(m.predictions))
	for k, v := range m.predictions {
		predictions[k] = v
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP rcbtserved_requests_total HTTP requests by path and status code.")
	fmt.Fprintln(w, "# TYPE rcbtserved_requests_total counter")
	for _, k := range sortedKeys(requests) {
		path, code, _ := cutLast(k)
		fmt.Fprintf(w, "rcbtserved_requests_total{path=%q,code=%q} %d\n", path, code, requests[k])
	}

	fmt.Fprintln(w, "# HELP rcbtserved_predictions_total Predictions by model and predicted class.")
	fmt.Fprintln(w, "# TYPE rcbtserved_predictions_total counter")
	for _, k := range sortedKeys(predictions) {
		model, class, _ := cutLast(k)
		fmt.Fprintf(w, "rcbtserved_predictions_total{model=%q,class=%q} %d\n", model, class, predictions[k])
	}

	fmt.Fprintln(w, "# HELP rcbtserved_request_seconds HTTP request latency.")
	fmt.Fprintln(w, "# TYPE rcbtserved_request_seconds histogram")
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += m.bucketCounts[i].Load()
		fmt.Fprintf(w, "rcbtserved_request_seconds_bucket{le=%q} %d\n", formatFloat(ub), cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "rcbtserved_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "rcbtserved_request_seconds_sum %s\n",
		formatFloat(float64(m.latencySumNs.Load())/1e9))
	fmt.Fprintf(w, "rcbtserved_request_seconds_count %d\n", m.latencyCount.Load())

	fmt.Fprintln(w, "# HELP rcbtserved_in_flight Requests currently being served.")
	fmt.Fprintln(w, "# TYPE rcbtserved_in_flight gauge")
	fmt.Fprintf(w, "rcbtserved_in_flight %d\n", m.inFlight.Load())
}

// writeJobMetrics renders the job manager's counters after the request
// metrics: queue and running gauges, terminal-state counters, and the
// job duration histogram (bucket counts arrive already cumulative).
func writeJobMetrics(w io.Writer, jm jobs.Metrics) {
	fmt.Fprintln(w, "# HELP rcbtserved_jobs_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE rcbtserved_jobs_queue_depth gauge")
	fmt.Fprintf(w, "rcbtserved_jobs_queue_depth %d\n", jm.QueueDepth)

	fmt.Fprintln(w, "# HELP rcbtserved_jobs_running Jobs currently executing.")
	fmt.Fprintln(w, "# TYPE rcbtserved_jobs_running gauge")
	fmt.Fprintf(w, "rcbtserved_jobs_running %d\n", jm.Running)

	fmt.Fprintln(w, "# HELP rcbtserved_jobs_total Finished jobs by terminal state.")
	fmt.Fprintln(w, "# TYPE rcbtserved_jobs_total counter")
	states := make([]string, 0, len(jm.ByState))
	for st := range jm.ByState {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "rcbtserved_jobs_total{state=%q} %d\n", st, jm.ByState[st])
	}

	fmt.Fprintln(w, "# HELP rcbtserved_job_duration_seconds Wall-clock run time of finished jobs.")
	fmt.Fprintln(w, "# TYPE rcbtserved_job_duration_seconds histogram")
	for i, ub := range jobs.DurationBuckets {
		fmt.Fprintf(w, "rcbtserved_job_duration_seconds_bucket{le=%q} %d\n",
			formatFloat(ub), jm.DurationBucket[i])
	}
	fmt.Fprintf(w, "rcbtserved_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", jm.DurationCount)
	fmt.Fprintf(w, "rcbtserved_job_duration_seconds_sum %s\n", formatFloat(jm.DurationSum))
	fmt.Fprintf(w, "rcbtserved_job_duration_seconds_count %d\n", jm.DurationCount)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cutLast splits key at its final '|', so paths containing '|' (they
// should not, but defence costs nothing) stay intact.
func cutLast(key string) (before, after string, ok bool) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '|' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
