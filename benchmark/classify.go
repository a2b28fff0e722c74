package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/rcbt"
	"repro/internal/serve"
)

const (
	// poolRows is twice serve.DefaultCacheSize: the Zipf head stays
	// cached while the tail keeps the BatchScorer busy.
	poolRows = 2 * serve.DefaultCacheSize
	// batchRows is the rows per classify request.
	batchRows = 16
	// zipfS is the Zipf exponent of row popularity.
	zipfS = 1.2
	// drawRequests is how many requests' row draws are generated; a
	// run that sends more wraps around.
	drawRequests = 1 << 14
	// steadyRate is the ladder step the end-to-end metrics come from:
	// about a third of the closed-loop capacity of the reference machine.
	steadyRate = 200
	// lateRate is the ladder step whose generator lateness is reported:
	// about half that capacity.
	lateRate = 400
	// limitP99 is the latency limit of the rate ladder.
	limitP99 = 25.0 // ms
	// warmUp is the untimed closed loop before the window (divided by
	// the run's scale).
	warmUp = time.Second
)

// ladder is the open-loop rate ladder (req/s).
var ladder = []float64{steadyRate, lateRate, 800}

// classifyInputs are the classify-open workload's generated requests.
type classifyInputs struct {
	train    *dataset.Matrix
	pool     [][]float64 // fresh test rows the requests draw from
	upload   []byte      // the training set, as dataset "bench"
	frags    [][]byte    // pool rows as {"values":[...]}
	draws    []int       // drawRequests × batchRows pool row ids
	want     [][]byte    // per pool row, its expected result object
	bodyPool sync.Pool
}

func newClassifyInputs(r *runState) (*classifyInputs, error) {
	p := tallProfile(r.opts.Scale)
	pool := poolRows / r.opts.Scale
	p.Test1, p.Test0 = pool/2, pool-pool/2
	train, test, err := generate(p)
	if err != nil {
		return nil, err
	}
	in := &classifyInputs{train: train, pool: test.Values}
	h, err := datasetHeader("bench", train)
	if err != nil {
		return nil, err
	}
	trainFrags, err := encodeRows(train, true)
	if err != nil {
		return nil, err
	}
	in.upload = joinRows(nil, h, trainFrags, seq(train.NumRows()), "]}")
	if in.frags, err = encodeRows(test, false); err != nil {
		return nil, err
	}
	// Popularity: Zipf over ranks, ranks mapped to rows by a seeded
	// permutation, so each seed has its own hot rows.
	rng := seededRand(r.opts.Seed, p)
	rankToRow := rng.Perm(pool)
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	in.draws = make([]int, drawRequests*batchRows)
	for i := range in.draws {
		in.draws[i] = rankToRow[z.Uint64()]
	}
	r.fp.bytes(in.upload)
	r.fp.bytes(in.frags...)
	r.fp.ints(in.draws)
	return in, nil
}

// rows returns the pool rows of request j.
func (in *classifyInputs) rows(j int) []int {
	k := j % drawRequests * batchRows
	return in.draws[k : k+batchRows]
}

// expected assembles the exact bytes the server must answer for rows.
func (in *classifyInputs) expected(rows []int) []byte {
	return joinRows(nil, `{"model":"bench","results":[`, in.want, rows, "]}\n")
}

// send posts the batch of the given pool rows and compares the reply
// byte for byte with its checked answer.
func (in *classifyInputs) send(ctx context.Context, st *stack, tr *Tracer, iter int64, rows []int) error {
	buf, _ := in.bodyPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	*buf = joinRows((*buf)[:0], `{"rows":[`, in.frags, rows, "]}")
	id := tr.Begin("classify.batch", 0, iter)
	got, err := st.call(ctx, tr, id, iter, "http.post", http.MethodPost, "/v1/models/bench/classify/batch", *buf)
	tr.Finish(id)
	in.bodyPool.Put(buf)
	if err != nil {
		return err
	}
	if want := in.expected(rows); !bytes.Equal(got, want) {
		return fmt.Errorf("%w: batch reply differs from the checked answer: got %.120s", errCheck, got)
	}
	return nil
}

// primeBench uploads the training set and trains model "bench" through
// the API.
func primeBench(ctx context.Context, st *stack, upload []byte, nproc int) (string, time.Time, error) {
	if _, err := st.call(ctx, nil, 0, 0, "", http.MethodPost, "/v1/datasets", upload); err != nil {
		return "", time.Time{}, err
	}
	id, err := st.submitTrain(ctx, nil, 0, 0, "bench", nproc)
	if err != nil {
		return "", time.Time{}, err
	}
	seen, err := st.waitModel(ctx, nil, 0, 0, "bench", 0, nil)
	return id, seen, err
}

func runClassify(ctx context.Context, r *runState) error {
	in, err := newClassifyInputs(r)
	if err != nil {
		return err
	}
	var (
		jobID  string
		served time.Time
	)
	st, err := r.setUp(ctx, func(ctx context.Context, st *stack) error {
		var err error
		jobID, served, err = primeBench(ctx, st, in.upload, r.nproc)
		return err
	})
	if err != nil {
		return err
	}
	defer st.close()
	if err := in.check(ctx, st, r); err != nil {
		return err
	}

	next := 0 // draws consumed by earlier phases
	op := func(ctx context.Context, i int) error {
		j := next + i
		return in.send(ctx, st, r.traced(j), int64(j), in.rows(j))
	}
	// The check left the cache holding the pool's last rows, not the
	// Zipf head; a short untimed closed loop brings it to steady state.
	warm := ClosedLoop(ctx, ctx.Done(), realClock{}, warmUp/time.Duration(r.opts.Scale), maxConns, op)
	next += len(warm)
	r.countSamples(warm)

	w, err := r.openWindow(ctx, st)
	if err != nil {
		return err
	}
	start := time.Now()
	// The end-to-end metrics come from the open loop at steadyRate, not
	// from the closed loop. The reference machine's vCPUs run up to 1.6x
	// slower for seconds to minutes at a time, and a closed loop that
	// keeps both busy took the full swing: across sets of ten seeds its
	// median spread 5-65%, the median at 200 req/s 4-16%. An untraced run
	// spends the whole window at steadyRate; a traced run gives a quarter
	// each to the closed loop (capacity) and the three ladder steps.
	if r.tracer == nil {
		samples := OpenLoop(ctx, ctx.Done(), realClock{}, steadyRate, int(steadyRate*r.window.Seconds()), maxConns, op)
		r.countSamples(samples)
		r.setReads(samples)
		return nil
	}
	phase := r.window / time.Duration(1+len(ladder))
	closed := ClosedLoop(ctx, ctx.Done(), realClock{}, phase, maxConns, op)
	next += len(closed)
	r.countSamples(closed)
	cs := Summarize(closed)
	r.note("closed_p50_ms", "ms", cs.P50, cs.Sent-cs.Failed)
	r.note("closed_rows_per_s", "1/s", float64(batchRows*(cs.Sent-cs.Failed))/cs.Elapsed.Seconds(), cs.Sent-cs.Failed)
	sent := cs.Sent

	okRate := 0.0
	for _, rate := range ladder {
		n := int(rate * phase.Seconds())
		samples := OpenLoop(ctx, ctx.Done(), realClock{}, rate, n, maxConns, op)
		next += n
		sent += len(samples)
		r.countSamples(samples)
		s := Summarize(samples)
		tag := fmt.Sprintf("at%d_", int(rate))
		r.note(tag+"p50_ms", "ms", s.P50, s.Sent-s.Failed)
		r.note(tag+"p99_ms", "ms", s.P99, s.Sent-s.Failed)
		r.note(tag+"late_p99_ms", "ms", s.LateP99, s.Sent)
		if s.Failed == 0 && s.P99 <= limitP99 && s.LateP99 < 1000 {
			okRate = rate
		}
		switch rate {
		case steadyRate:
			r.setReads(samples)
		case lateRate:
			r.set("loadgen.late_p99_ms", s.LateP99, s.Sent)
		}
	}
	r.note("ok_rps", "1/s", okRate, len(ladder))
	if err := r.closeWindow(ctx, st, w, sent); err != nil {
		return err
	}

	r.samplesOverhead(closed, len(warm))
	if err := r.jobTimes(ctx, st, servedByID(map[string]time.Time{jobID: served}), start); err != nil {
		return err
	}
	bodies := make([][]byte, 100)
	for i := range bodies {
		bodies[i] = joinRows(nil, `{"rows":[`, in.frags, in.rows(i), "]}")
	}
	if err := r.handlerTime(ctx, st, "/v1/models/bench/classify/batch", bodies); err != nil {
		return err
	}
	var reads [][]float64
	for i := 0; i < 64; i++ {
		for _, row := range in.rows(i) {
			reads = append(reads, in.pool[row])
		}
	}
	return r.replayLayers(ctx, in.train, reads, batchRows)
}

// setReads records op_p50_ms and rows_per_s from an open loop's
// samples: the median latency from due time, and the rows classified
// per second of request time, as the train workloads count rows per
// second of cycle time.
func (r *runState) setReads(samples []Sample) {
	s := Summarize(samples)
	ok := s.Sent - s.Failed
	var busy time.Duration
	for _, x := range samples {
		if x.Err == nil {
			busy += x.Latency()
		}
	}
	rate := 0.0
	if busy > 0 {
		rate = float64(batchRows*ok) / busy.Seconds()
	}
	r.set("op_p50_ms", s.P50, ok)
	r.set("rows_per_s", rate, ok)
}

// check fetches the served model's envelope, computes every pool row's
// answer with Model.PredictValues, and sends the whole pool once in
// order, comparing each reply with those answers. It also fills the
// prediction cache before timing starts.
func (in *classifyInputs) check(ctx context.Context, st *stack, r *runState) error {
	b, err := st.call(ctx, nil, 0, 0, "", http.MethodGet, "/v1/models/bench", nil)
	if err != nil {
		return err
	}
	model, err := rcbt.LoadModel(bytes.NewReader(b))
	if err != nil {
		return fmt.Errorf("served envelope: %w", err)
	}
	in.want = make([][]byte, len(in.pool))
	for i, values := range in.pool {
		label, idx, err := model.PredictValues(values)
		if err != nil {
			return err
		}
		if in.want[i], err = json.Marshal(serve.BatchResult{Label: int(label), Class: model.ClassName(label), Classifier: idx}); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(in.frags); lo += batchRows {
		rows := seq(min(batchRows, len(in.frags)-lo))
		for k := range rows {
			rows[k] += lo
		}
		r.count(in.send(ctx, st, nil, 0, rows))
	}
	return nil
}
