package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/datastore"
	"repro/internal/jobs"
	"repro/internal/serve"
)

const (
	// maxConns caps the client's connections to the server: the two
	// cores of the reference machine serve at most two requests at once.
	maxConns = 2
	// pollEvery is how often a client polls for a model to appear.
	pollEvery = 5 * time.Millisecond
	// Each run builds its set-up at least minSetups times, then again
	// while the builds so far took less than setupBudget (divided by
	// the run's scale), at most maxSetups times; setup_s is the median.
	// A short set-up thus gets more samples: three builds of a 0.2 s
	// set-up spread 20-40% across runs.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 4 * time.Second
)

// stack is the system under test, wired in-process the way
// cmd/rcbtserved wires it: a datastore and a job manager in a fresh
// directory behind the HTTP server on a loopback listener.
type stack struct {
	ctx    context.Context // the run's context, for shutting down
	dir    string
	srv    *serve.Server
	mgr    *jobs.Manager
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func openStack(ctx context.Context, parent string, nproc int) (*stack, error) {
	dir, err := os.MkdirTemp(parent, "stack-")
	if err != nil {
		return nil, err
	}
	st := &stack{ctx: ctx, dir: dir}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	store, err := datastore.Open(datastore.Config{Dir: filepath.Join(dir, "datasets")})
	if err != nil {
		return fail(err)
	}
	if st.mgr, err = jobs.Open(ctx, jobs.Config{DataDir: filepath.Join(dir, "jobs")}); err != nil {
		return fail(err)
	}
	st.srv, err = serve.New(serve.Config{
		Jobs:        st.mgr,
		Store:       store,
		RefreshSpec: jobs.Spec{Workers: nproc},
	})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	st.hs = &http.Server{Handler: st.srv, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
		// A redirect is a failure to report, not a hop to follow.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	return st, nil
}

// close stops the server the way cmd/rcbtserved does (refresher, jobs,
// then HTTP), waits for every goroutine it started, and removes the
// stack's directory.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
	}
	if st.mgr != nil {
		st.mgr.Drain()
		_ = st.mgr.Close() // Close always returns nil
	}
	if st.hs != nil {
		// Shut down even when the run's context has already ended.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(st.ctx), 10*time.Second)
		_ = st.hs.Shutdown(ctx) // a timeout here still leaves Serve returning below
		cancel()
		<-st.served
		st.client.CloseIdleConnections()
	}
	_ = os.RemoveAll(st.dir) // best effort: the run directory is removed after too
}

// call sends one request under a span and reads the whole reply. Any
// status outside 2xx, a redirect included, is an error.
func (st *stack) call(ctx context.Context, tr *Tracer, parent, iter int64, span, method, path string, body []byte) ([]byte, error) {
	id := tr.Begin(span, parent, iter)
	defer tr.Finish(id)
	req, err := http.NewRequestWithContext(ctx, method, st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close() // fully read; a close error changes nothing
	if err != nil {
		return nil, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg := string(b)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return b, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(msg))
	}
	return b, nil
}

// submitTrain posts a train job for a stored dataset and returns its id.
func (st *stack) submitTrain(ctx context.Context, tr *Tracer, parent, iter int64, dataset string, nproc int) (string, error) {
	body, err := json.Marshal(jobs.Spec{Kind: jobs.KindTrain, Dataset: dataset, ModelName: dataset, Workers: nproc})
	if err != nil {
		return "", err
	}
	b, err := st.call(ctx, tr, parent, iter, "job.submit", http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", err
	}
	var rec jobs.Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return "", fmt.Errorf("job submit reply: %w", err)
	}
	return rec.ID, nil
}

// waitModel polls GET /v1/models every pollEvery until name is listed
// trained on at least dataset version minVersion, and returns when it
// saw it. afterPoll, when set, runs after each unsuccessful poll with
// how late that poll fired against its schedule.
func (st *stack) waitModel(ctx context.Context, tr *Tracer, parent, iter int64, name string, minVersion int, afterPoll func(late time.Duration) error) (time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	next := time.Now()
	for {
		b, err := st.call(ctx, tr, parent, iter, "models.poll", http.MethodGet, "/v1/models", nil)
		if err != nil {
			return time.Time{}, err
		}
		seen := time.Now()
		var list struct {
			Models []struct {
				Name string `json:"name"`
				Meta *struct {
					DatasetVersion int `json:"datasetVersion"`
				} `json:"meta"`
			} `json:"models"`
		}
		if err := json.Unmarshal(b, &list); err != nil {
			return time.Time{}, fmt.Errorf("models reply: %w", err)
		}
		for _, m := range list.Models {
			if m.Name == name && (minVersion == 0 || m.Meta != nil && m.Meta.DatasetVersion >= minVersion) {
				return seen, nil
			}
		}
		next = next.Add(pollEvery)
		if !(realClock{}).SleepUntil(next, ctx.Done()) {
			return time.Time{}, fmt.Errorf("waiting for model %s: %w", name, ctx.Err())
		}
		if afterPoll != nil {
			if err := afterPoll(time.Since(next)); err != nil {
				return time.Time{}, err
			}
		}
	}
}

// jobRecords lists the server's job records.
func (st *stack) jobRecords(ctx context.Context) ([]*jobs.Record, error) {
	b, err := st.call(ctx, nil, 0, 0, "", http.MethodGet, "/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []*jobs.Record `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("jobs reply: %w", err)
	}
	return list.Jobs, nil
}

// cacheState is one model's prediction-cache counters and the dataset
// version of the model instance they belong to.
type cacheState struct {
	version                 int
	hits, misses, evictions float64
}

// cacheCounters scrapes /metrics for every served model's cache
// counters and dataset version.
func (st *stack) cacheCounters(ctx context.Context) (map[string]cacheState, error) {
	b, err := st.call(ctx, nil, 0, 0, "", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]cacheState{}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, "{model=")
		if !ok {
			continue
		}
		model, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		model = strings.Trim(model, `"`)
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		c := out[model]
		switch name {
		case "rcbtserved_predict_cache_hits_total":
			c.hits = v
		case "rcbtserved_predict_cache_misses_total":
			c.misses = v
		case "rcbtserved_predict_cache_evictions_total":
			c.evictions = v
		case "rcbtserved_model_dataset_version":
			c.version = int(v)
		default:
			continue
		}
		out[model] = c
	}
	return out, nil
}

// errCheck marks a reply that arrived but was wrong.
var errCheck = errors.New("wrong answer")
