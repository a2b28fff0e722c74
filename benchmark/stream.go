package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/serve"
)

const (
	// streamInitial is the rows the dataset is created with; the rest
	// of the 102-row training split is appended one row at a time.
	// Mining cost grows steeply past ~130 rows on this shape, so the
	// stream stays within the split.
	streamInitial = 54
	// readRate is the single-row classify rate beside the appends.
	readRate = 50
	// streamPool is the fresh test rows the reads draw from.
	streamPool = 256
	// streamCheckRows is how many pool rows the final check labels.
	streamCheckRows = 64
	// writeIters offsets the writer's span iteration ids from the
	// reader's.
	writeIters = 1 << 20
	// appendOrderSeed shuffles the appended rows (see newStreamInputs).
	appendOrderSeed = 1
)

// streamInputs are the stream-mixed workload's generated requests.
type streamInputs struct {
	train     *dataset.Matrix
	order     []int    // row order: the create rows, then the appends
	create    []byte   // dataset "stream" with the first streamInitial rows
	appends   [][]byte // one append body per remaining row
	pool      [][]float64
	reads     [][]byte // single-row classify body per pool row
	readDraws []int    // pool row of each read
	checkBody []byte   // the first streamCheckRows pool rows as one batch
}

func newStreamInputs(r *runState) (*streamInputs, error) {
	p := streamProfile(r.opts.Scale)
	p.Test1, p.Test0 = streamPool/2, streamPool/2
	train, test, err := generate(p)
	if err != nil {
		return nil, err
	}
	// The row order is the same for every seed. Training cost on this
	// shape depends on which rows a prefix holds: over nine append
	// orders the 49 prefixes took 3.5-8.8 s to train in total and up to
	// 0.2-1.8 GB of allocation (FindLB blows up on a few prefixes), so
	// a seeded order would let the seed, not the code, set the numbers.
	// The fixed order is one of the cheap ones; train-wide covers
	// FindLB. The seed draws the reads.
	order := rand.New(rand.NewSource(p.Seed)).Perm(train.NumRows())
	tail := order[streamInitial:]
	rand.New(rand.NewSource(appendOrderSeed)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	in := &streamInputs{train: train, order: order, pool: test.Values}
	rng := seededRand(r.opts.Seed, p)
	frags, err := encodeRows(train, true)
	if err != nil {
		return nil, err
	}
	h, err := datasetHeader("stream", train)
	if err != nil {
		return nil, err
	}
	in.create = joinRows(nil, h, frags, in.order[:streamInitial], "]}")
	for _, row := range in.order[streamInitial:] {
		in.appends = append(in.appends, joinRows(nil, `{"rows":[`, frags, []int{row}, "]}"))
	}
	if in.reads, err = encodeRows(test, false); err != nil {
		return nil, err
	}
	in.checkBody = joinRows(nil, `{"rows":[`, in.reads, seq(streamCheckRows), "]}")
	in.readDraws = make([]int, readRate*600)
	for i := range in.readDraws {
		in.readDraws[i] = rng.Intn(len(in.reads))
	}
	r.fp.bytes(in.create, in.checkBody)
	r.fp.bytes(in.appends...)
	r.fp.bytes(in.reads...)
	r.fp.ints(in.readDraws)
	return in, nil
}

// appendCycle is one append's outcome.
type appendCycle struct {
	append, fresh time.Duration
	version       int
	seen          time.Time
	refresh       serve.DatasetInfo
}

func runStream(ctx context.Context, r *runState) error {
	in, err := newStreamInputs(r)
	if err != nil {
		return err
	}
	st, err := r.setUp(ctx, func(ctx context.Context, st *stack) error {
		if _, err := st.call(ctx, nil, 0, 0, "", http.MethodPost, "/v1/datasets", in.create); err != nil {
			return err
		}
		if _, err := st.submitTrain(ctx, nil, 0, 0, "stream", r.nproc); err != nil {
			return err
		}
		_, err := st.waitModel(ctx, nil, 0, 0, "stream", 1, nil)
		return err
	})
	if err != nil {
		return err
	}
	defer st.close()
	classes := in.train.ClassNames

	w, err := r.openWindow(ctx, st)
	if err != nil {
		return err
	}
	start := time.Now()
	readCtx, stopReads := context.WithCancel(ctx)
	defer stopReads()
	var reads []Sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := min(int(readRate*r.window.Seconds())+1, len(in.readDraws))
		reads = OpenLoop(ctx, readCtx.Done(), realClock{}, readRate, n, 1, func(ctx context.Context, i int) error {
			return readOnce(ctx, st, r.traced(i), int64(i), in.reads[in.readDraws[i]], classes)
		})
	}()

	var cycles []appendCycle
	var writeErr error
	// On a traced run the writer scrapes the cache counters at every
	// poll, so the counts of a cache a hot-swap discards are not lost.
	scrape := func(time.Duration) error { return w.scrape(ctx, st) }
	for c := 0; c < len(in.appends) && time.Since(start) < r.window; c++ {
		cy, err := appendOnce(ctx, st, r.traced(c), int64(writeIters+c), in.appends[c], scrape)
		r.count(err)
		if err != nil {
			if ctx.Err() != nil {
				writeErr = ctx.Err()
				break
			}
			continue
		}
		cycles = append(cycles, cy)
	}
	stopReads()
	wg.Wait()
	if writeErr != nil {
		return writeErr
	}
	r.countSamples(reads)
	if err := r.closeWindow(ctx, st, w, len(reads)+len(cycles)); err != nil {
		return err
	}
	if len(cycles) == 0 {
		return fmt.Errorf("no append succeeded")
	}

	// Correctness: the final served model labels rows exactly as a
	// from-scratch fit and train on the final matrix does.
	b, err := st.call(ctx, nil, 0, 0, "", http.MethodGet, "/v1/datasets/stream", nil)
	if err != nil {
		return err
	}
	var info serve.DatasetInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return fmt.Errorf("dataset reply: %w", err)
	}
	final := subset(in.train, in.order[:info.Rows])
	r.count(in.checkFinal(ctx, st, final))

	var appendMs, fresh []float64
	var total time.Duration
	for _, c := range cycles {
		appendMs = append(appendMs, ms(c.append))
		fresh = append(fresh, ms(c.fresh))
		total += c.append + c.fresh
	}
	rs := Summarize(reads)
	n := len(cycles)
	r.set("op_p50_ms", rs.P50, rs.Sent-rs.Failed)
	r.set("rows_per_s", float64(n)/total.Seconds(), n)
	r.note("append_p50_ms", "ms", Median(appendMs), n)
	r.note("fresh_p50_ms", "ms", Median(fresh), n)
	r.note("read_p99_ms", "ms", rs.P99, rs.Sent-rs.Failed)
	r.note("read_late_p99_ms", "ms", rs.LateP99, rs.Sent)

	if r.tracer == nil {
		return nil
	}
	r.samplesOverhead(reads, 0)
	r.set("loadgen.late_p99_ms", rs.LateP99, rs.Sent)
	var build, changed []float64
	fast := 0
	seen := map[int]time.Time{}
	for _, c := range cycles {
		seen[c.version] = c.seen
		if rf := c.refresh.Refresh; rf != nil {
			build = append(build, float64(rf.BuildNanos)/1e6)
			changed = append(changed, float64(rf.ChangedGenes))
			if rf.FastPath {
				fast++
			}
		}
	}
	r.set("datastore.append_build_p50_ms", Median(build), len(build))
	r.set("datastore.changed_genes_p50", Median(changed), len(changed))
	r.set("datastore.fast_path_ratio", float64(fast)/float64(n), n)
	if err := r.jobTimes(ctx, st, func(rec *jobs.Record) (time.Time, bool) {
		t, ok := seen[rec.Spec.DatasetVersion]
		return t, ok
	}, start); err != nil {
		return err
	}
	bodies := make([][]byte, 100)
	for i := range bodies {
		bodies[i] = in.reads[in.readDraws[i]]
	}
	if err := r.handlerTime(ctx, st, "/v1/models/stream/classify", bodies); err != nil {
		return err
	}
	return r.replayLayers(ctx, final, in.pool, batchRows)
}

// readOnce classifies one raw row and checks the reply names a class
// of the model.
func readOnce(ctx context.Context, st *stack, tr *Tracer, iter int64, body []byte, classes []string) error {
	id := tr.Begin("stream.read", 0, iter)
	defer tr.Finish(id)
	b, err := st.call(ctx, tr, id, iter, "http.post", http.MethodPost, "/v1/models/stream/classify", body)
	if err != nil {
		return err
	}
	var resp serve.ClassifyResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("%w: classify reply: %w", errCheck, err)
	}
	if resp.Label < 0 || resp.Label >= len(classes) || resp.Class != classes[resp.Label] || resp.Model != "stream" {
		return fmt.Errorf("%w: classify reply %s", errCheck, b)
	}
	return nil
}

// appendOnce appends one row and waits until the refreshed model that
// covers it is served.
func appendOnce(ctx context.Context, st *stack, tr *Tracer, iter int64, body []byte, afterPoll func(time.Duration) error) (appendCycle, error) {
	var c appendCycle
	root := tr.Begin("stream.append", 0, iter)
	defer tr.Finish(root)
	t0 := time.Now()
	b, err := st.call(ctx, tr, root, iter, "dataset.append", http.MethodPost, "/v1/datasets/stream/rows", body)
	if err != nil {
		return c, err
	}
	ack := time.Now()
	c.append = ack.Sub(t0)
	if err := json.Unmarshal(b, &c.refresh); err != nil {
		return c, fmt.Errorf("append reply: %w", err)
	}
	c.version = c.refresh.Version
	if c.seen, err = st.waitModel(ctx, tr, root, iter, "stream", c.version, afterPoll); err != nil {
		return c, err
	}
	c.fresh = c.seen.Sub(ack)
	return c, nil
}

// checkFinal compares the served model's labels on the check rows with
// a reference trained from scratch on the final matrix.
func (in *streamInputs) checkFinal(ctx context.Context, st *stack, final *dataset.Matrix) error {
	want, err := referenceLabels(ctx, final, in.pool[:streamCheckRows])
	if err != nil {
		return err
	}
	b, err := st.call(ctx, nil, 0, 0, "", http.MethodPost, "/v1/models/stream/classify/batch", in.checkBody)
	if err != nil {
		return err
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("final check reply: %w", err)
	}
	got := make([]int, len(resp.Results))
	for i, res := range resp.Results {
		got[i] = res.Label
	}
	return equalLabels(got, want)
}
