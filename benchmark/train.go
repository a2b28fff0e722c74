package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/rcbt"
	"repro/internal/serve"
	"repro/internal/synth"
)

// familySize is how many row orders of the training matrix a train
// workload cycles through. Row order changes how much work mining and
// FindLB do by up to ±20% (tie-breaking), so every run trains on the
// same fixed family and the seed only orders the iterations; a run's
// median then does not depend on which orders a seed happened to draw.
const familySize = 3

func runTrainWide(ctx context.Context, r *runState) error {
	return runTrain(ctx, r, "wide", wideProfile(r.opts.Scale))
}

func runTrainTall(ctx context.Context, r *runState) error {
	return runTrain(ctx, r, "tall", tallProfile(r.opts.Scale))
}

// trainInputs are a train workload's generated requests.
type trainInputs struct {
	train, test *dataset.Matrix
	rowFrags    [][]byte // labeled training rows
	orders      [][]int  // the row-order family
	checkBody   []byte   // the test split as one raw batch
}

func newTrainInputs(p synth.Profile, fp *fingerprint) (*trainInputs, error) {
	train, test, err := generate(p)
	if err != nil {
		return nil, err
	}
	in := &trainInputs{train: train, test: test}
	if in.rowFrags, err = encodeRows(train, true); err != nil {
		return nil, err
	}
	in.orders = append(in.orders, seq(train.NumRows()))
	for k := 1; k < familySize; k++ {
		in.orders = append(in.orders, rand.New(rand.NewSource(int64(k))).Perm(train.NumRows()))
	}
	testFrags, err := encodeRows(test, false)
	if err != nil {
		return nil, err
	}
	in.checkBody = joinRows(nil, `{"rows":[`, testFrags, seq(test.NumRows()), `]}`)
	if fp != nil {
		h, err := datasetHeader("", train)
		if err != nil {
			return nil, err
		}
		fp.bytes([]byte(h), in.checkBody)
		fp.bytes(in.rowFrags...)
		for _, o := range in.orders {
			fp.ints(o)
		}
	}
	return in, nil
}

// body assembles the create request of dataset name in row order k.
func (in *trainInputs) body(name string, k int) ([]byte, error) {
	h, err := datasetHeader(name, in.train)
	if err != nil {
		return nil, err
	}
	return joinRows(nil, h, in.rowFrags, in.orders[k], "]}"), nil
}

// iterationOrder maps iteration i to its row order: each block of
// familySize iterations visits every order once, shuffled by the seed.
func iterationOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+familySize)
	for len(out) < n {
		block := seq(familySize)
		if seed != 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		out = append(out, block...)
	}
	return out[:n]
}

// cycle is one train iteration's outcome.
type cycle struct {
	name            string
	order           int
	latency, upload time.Duration
	check           time.Duration
	jobID           string
	served          time.Time
	labels          []int
	traced          bool
}

// trainCycle uploads the rows as a new dataset, submits a train job
// with workers = nproc and polls until the model is served: raw
// expression in, served model out. Then, outside the timed part, it
// classifies the test split with the new model for the correctness
// check.
func (r *runState) trainCycle(ctx context.Context, st *stack, in *trainInputs, name string, i, k int, pollLate *[]float64) (cycle, error) {
	afterPoll := func(late time.Duration) error {
		if pollLate != nil {
			*pollLate = append(*pollLate, ms(late))
		}
		return nil
	}
	c := cycle{name: name, order: k}
	body, err := in.body(name, k)
	if err != nil {
		return c, err
	}
	tr := r.traced(i)
	c.traced = tr != nil
	iter := int64(i)
	root := tr.Begin("train.cycle", 0, iter)
	t0 := time.Now()
	if _, err := st.call(ctx, tr, root, iter, "dataset.create", http.MethodPost, "/v1/datasets", body); err != nil {
		return c, err
	}
	c.upload = time.Since(t0)
	if c.jobID, err = st.submitTrain(ctx, tr, root, iter, name, r.nproc); err != nil {
		return c, err
	}
	if c.served, err = st.waitModel(ctx, tr, root, iter, name, 0, afterPoll); err != nil {
		return c, err
	}
	c.latency = c.served.Sub(t0)
	tr.Finish(root)

	t1 := time.Now()
	b, err := st.call(ctx, tr, 0, iter, "check.classify", http.MethodPost, "/v1/models/"+name+"/classify/batch", in.checkBody)
	if err != nil {
		return c, err
	}
	c.check = time.Since(t1)
	var resp serve.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return c, fmt.Errorf("check reply: %w", err)
	}
	for _, res := range resp.Results {
		c.labels = append(c.labels, res.Label)
	}
	return c, nil
}

func runTrain(ctx context.Context, r *runState, prefix string, p synth.Profile) error {
	in, err := newTrainInputs(p, r.fp)
	if err != nil {
		return err
	}
	warm := 0
	st, err := r.setUp(ctx, func(ctx context.Context, st *stack) error {
		// One full cycle, so buffers, the heap and the model registry
		// are warm before timing.
		warm++
		_, err := r.trainCycle(ctx, st, in, fmt.Sprintf("%s-warm%d", prefix, warm), 1, 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	defer st.close()

	w, err := r.openWindow(ctx, st)
	if err != nil {
		return err
	}
	start := time.Now()
	orders := iterationOrder(r.opts.Seed, 10000)
	var (
		cycles   []cycle
		pollLate []float64
	)
	for i := 0; time.Since(start) < r.window; i++ {
		c, err := r.trainCycle(ctx, st, in, fmt.Sprintf("%s-%d", prefix, i), i, orders[i], &pollLate)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			r.count(err)
			continue
		}
		cycles = append(cycles, c)
	}
	if err := r.closeWindow(ctx, st, w, len(cycles)); err != nil {
		return err
	}
	if len(cycles) == 0 {
		return fmt.Errorf("no train cycle succeeded")
	}

	// Correctness: every served model labels the test split exactly as
	// an in-process reference trained on the same rows does.
	want, err := in.references(ctx, r.nproc)
	if err != nil {
		return err
	}
	for _, c := range cycles {
		r.count(equalLabels(c.labels, want[c.order]))
	}

	var lat, upload, trainOnly, check, traced, untraced []float64
	var total time.Duration
	served := map[string]time.Time{}
	for _, c := range cycles {
		lat = append(lat, ms(c.latency))
		upload = append(upload, ms(c.upload))
		trainOnly = append(trainOnly, ms(c.latency-c.upload))
		check = append(check, ms(c.check))
		total += c.latency
		served[c.jobID] = c.served
		if c.traced {
			traced = append(traced, ms(c.latency))
		} else {
			untraced = append(untraced, ms(c.latency))
		}
	}
	n := len(cycles)
	r.set("op_p50_ms", Median(lat), n)
	r.set("rows_per_s", float64(in.train.NumRows()*n)/total.Seconds(), n)
	r.note("upload_p50_ms", "ms", Median(upload), n)
	r.note("train_p50_ms", "ms", Median(trainOnly), n)
	r.note("check_p50_ms", "ms", Median(check), n)
	r.note("op_p90_ms", "ms", Percentile(lat, 90), n)

	if r.tracer == nil {
		return nil
	}
	r.overhead(traced, untraced)
	r.set("loadgen.late_p99_ms", Percentile(pollLate, 99), len(pollLate))
	if err := r.jobTimes(ctx, st, servedByID(served), start); err != nil {
		return err
	}
	last := "/v1/models/" + cycles[n-1].name + "/classify/batch"
	if err := r.handlerTime(ctx, st, last, repeat(in.checkBody, 20)); err != nil {
		return err
	}
	return r.replayLayers(ctx, in.train, in.test.Values, in.test.NumRows())
}

// references computes every row order's reference labels, nproc at a
// time: the window is over, so only wall time is at stake.
func (in *trainInputs) references(ctx context.Context, nproc int) ([][]int, error) {
	want := make([][]int, len(in.orders))
	errs := make([]error, len(in.orders))
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for k, order := range in.orders {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			want[k], errs[k] = referenceLabels(ctx, subset(in.train, order), in.test.Values)
		}()
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

// referenceLabels trains in-process on m the way a train job does
// (sequential mining; the classifier is identical at any worker count)
// and labels rows through the model's raw-value path.
func referenceLabels(ctx context.Context, m *dataset.Matrix, rows [][]float64) ([]int, error) {
	dz, err := discretize.FitMatrix(m)
	if err != nil {
		return nil, err
	}
	d, err := dz.Transform(m)
	if err != nil {
		return nil, err
	}
	cls, err := rcbt.TrainContext(ctx, d, rcbt.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	model := &rcbt.Model{Classifier: cls, Discretizer: dz, ClassNames: d.ClassNames, NumItems: d.NumItems()}
	out := make([]int, len(rows))
	for i, row := range rows {
		l, _, err := model.PredictValues(row)
		if err != nil {
			return nil, err
		}
		out[i] = int(l)
	}
	return out, nil
}

func equalLabels(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d labels, want %d", errCheck, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: row %d labelled %d, reference %d", errCheck, i, got[i], want[i])
		}
	}
	return nil
}

func repeat(b []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
