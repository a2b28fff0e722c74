package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/datastore"
	"repro/internal/discretize"
	"repro/internal/lowerbound"
	"repro/internal/rcbt"
	"repro/internal/rules"
)

// replayReps is how many times the in-process replay repeats; the
// per-layer times are medians. Mining at two workers varies by ±25%
// from run to run, so three repetitions are too few.
const replayReps = 5

// replayLayers times each layer's public functions on one workload's
// inputs, in-process: train is the matrix the workload's model trains
// on and reads are raw rows its read path classifies, batch at a time.
// Times are medians of replayReps repetitions; counts come from the
// sequential mine, which is deterministic.
func (r *runState) replayLayers(ctx context.Context, train *dataset.Matrix, reads [][]float64, batch int) error {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		add(name, ms(time.Since(t0)))
		return err
	}
	for rep := 0; rep < replayReps; rep++ {
		var (
			dz  *discretize.Discretizer
			d   *dataset.Dataset
			err error
		)
		if err := timed("discretize.fit_ms", func() error { dz, err = discretize.FitMatrix(train); return err }); err != nil {
			return err
		}
		if err := timed("discretize.transform_ms", func() error { d, err = dz.Transform(train); return err }); err != nil {
			return err
		}
		fresh := &dataset.Dataset{Items: d.Items, Rows: d.Rows, Labels: d.Labels, ClassNames: d.ClassNames}
		_ = timed("dataset.index_ms", func() error { fresh.ItemRows(0); return nil })

		var par, seq []*core.Result
		if err := timed("core.mine_ms", func() error { par, err = mineAll(ctx, d, r.nproc); return err }); err != nil {
			return err
		}
		if err := timed("core.mine_seq_ms", func() error { seq, err = mineAll(ctx, d, 1); return err }); err != nil {
			return err
		}
		var union []*rules.Group
		for _, res := range par {
			if res != nil {
				union = append(union, res.Groups...)
			}
		}
		var found [][]*rules.Rule
		_ = timed("lowerbound.findall_ms", func() error {
			found = lowerbound.FindAll(d, union, lowerbound.Config{NL: 20, ItemScore: lowerbound.DefaultItemScores(d)})
			return nil
		})
		var cls *rcbt.Classifier
		if err := timed("rcbt.train_ms", func() error {
			cls, err = rcbt.TrainContext(ctx, d, rcbt.Config{Workers: r.nproc})
			return err
		}); err != nil {
			return err
		}
		if err := timed("rcbt.train_seq_ms", func() error {
			_, err := rcbt.TrainContext(ctx, d, rcbt.Config{Workers: 1})
			return err
		}); err != nil {
			return err
		}
		// Selection and the rest: the sequential train minus the
		// sequential mine and FindLB of the same repetition. Two-worker
		// mining varies too much from call to call to subtract.
		add("rcbt.select_other_ms", last(samples["rcbt.train_seq_ms"])-last(samples["core.mine_seq_ms"])-last(samples["lowerbound.findall_ms"]))
		model := &rcbt.Model{Classifier: cls, Discretizer: dz, ClassNames: d.ClassNames, NumItems: d.NumItems()}
		var buf bytes.Buffer
		if err := timed("rcbt.save_ms", func() error { return model.Save(&buf) }); err != nil {
			return err
		}
		add("rcbt.model_kb", float64(buf.Len())/1024)

		t0 := time.Now()
		items := make([][]int, len(reads))
		for i, row := range reads {
			items[i] = dz.RowItems(row)
		}
		add("discretize.rowitems_us", float64(time.Since(t0).Microseconds())/float64(len(reads)))
		add("rcbt.batch_rows_per_s", batchRate(cls, d.NumItems(), items, batch))

		if err := r.replayStore(rep, train, add); err != nil {
			return err
		}

		if rep == 0 {
			var st struct{ nodes, groups, backward, bound int }
			for _, res := range seq {
				if res == nil {
					continue
				}
				st.nodes += res.Stats.Nodes
				st.groups += len(res.Groups)
				st.backward += res.Stats.BackwardPruned
				st.bound += res.Stats.PrunedBeforeScan + res.Stats.PrunedAfterScan
			}
			r.set("core.nodes", float64(st.nodes), 1)
			r.set("core.groups", float64(st.groups), 1)
			r.set("core.backward_pruned", float64(st.backward), 1)
			r.set("core.bound_pruned", float64(st.bound), 1)
			nrules := 0
			for _, f := range found {
				nrules += len(f)
			}
			r.set("lowerbound.groups", float64(len(union)), 1)
			r.set("lowerbound.rules", float64(nrules), 1)
		}
	}
	med := func(name string) float64 { return Median(samples[name]) }
	for _, name := range []string{
		"discretize.fit_ms", "discretize.transform_ms", "discretize.rowitems_us", "dataset.index_ms",
		"core.mine_ms", "core.mine_seq_ms", "lowerbound.findall_ms", "rcbt.train_ms", "rcbt.train_seq_ms",
		"rcbt.select_other_ms", "rcbt.save_ms", "rcbt.model_kb", "rcbt.batch_rows_per_s", "datastore.create_ms",
	} {
		r.set(name, med(name), len(samples[name]))
	}
	r.set("core.parallel_speedup", med("core.mine_seq_ms")/med("core.mine_ms"), replayReps)
	r.set("core.nodes_per_s", r.metrics["core.nodes"].Value/(med("core.mine_seq_ms")/1000), replayReps)
	if _, ok := r.metrics["datastore.append_build_p50_ms"]; !ok {
		// Workloads that append nothing get the replay's appends.
		r.set("datastore.append_build_p50_ms", med("append.build_ms"), replayReps)
		r.set("datastore.fast_path_ratio", med("append.fast_path"), replayReps)
		r.set("datastore.changed_genes_p50", med("append.changed_genes"), replayReps)
	}
	r.separation()
	return nil
}

// mineAll runs MineTopkRGS for every class the way rcbt.TrainContext
// does (k = 10, minsup = ⌈0.7 · class size⌉).
func mineAll(ctx context.Context, d *dataset.Dataset, workers int) ([]*core.Result, error) {
	out := make([]*core.Result, d.NumClasses())
	for cls := range out {
		n := d.ClassCount(dataset.Label(cls))
		if n == 0 {
			continue
		}
		minsup := int(0.7 * float64(n))
		if float64(minsup) < 0.7*float64(n) {
			minsup++
		}
		cfg := core.DefaultConfig(max(minsup, 1), 10)
		cfg.Workers = workers
		res, err := core.MineContext(ctx, d, dataset.Label(cls), cfg)
		if err != nil {
			return nil, fmt.Errorf("mine class %d: %w", cls, err)
		}
		out[cls] = res
	}
	return out, nil
}

// batchRate measures the rule-major BatchScorer alone, in rows per
// second, over the rows cut into batches; it repeats the sweep until
// 50 ms have passed so small inputs still give a stable rate.
func batchRate(cls *rcbt.Classifier, numItems int, items [][]int, batch int) float64 {
	var batches [][]*bitset.Set
	for lo := 0; lo < len(items); lo += batch {
		var b []*bitset.Set
		for _, it := range items[lo:min(lo+batch, len(items))] {
			s := bitset.New(numItems)
			for _, i := range it {
				s.Add(i)
			}
			b = append(b, s)
		}
		batches = append(batches, b)
	}
	sc := rcbt.NewBatchScorer(cls, numItems)
	sc.Grow(batch)
	labels := make([]dataset.Label, batch)
	idxs := make([]int, batch)
	rows := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for _, b := range batches {
			sc.PredictInto(b, labels, idxs)
			rows += len(b)
		}
	}
	return float64(rows) / time.Since(t0).Seconds()
}

// replayStore times a dataset create and a 3-row append on a fresh
// store.
func (r *runState) replayStore(rep int, m *dataset.Matrix, add func(string, float64)) error {
	dir := filepath.Join(r.opts.Dir, fmt.Sprintf("replay-%d", rep))
	defer os.RemoveAll(dir) // best effort; the run directory goes too
	store, err := datastore.Open(datastore.Config{Dir: dir})
	if err != nil {
		return err
	}
	n := m.NumRows() - 3
	t0 := time.Now()
	if _, err := store.Create("replay", m.ClassNames, m.GeneNames, m.Values[:n], m.Labels[:n]); err != nil {
		return fmt.Errorf("replay create: %w", err)
	}
	add("datastore.create_ms", ms(time.Since(t0)))
	snap, err := store.Append("replay", m.Values[n:], m.Labels[n:])
	if err != nil {
		return fmt.Errorf("replay append: %w", err)
	}
	add("append.build_ms", float64(snap.Refresh.BuildNanos)/1e6)
	add("append.changed_genes", float64(snap.Refresh.ChangedGenes))
	fast := 0.0
	if snap.Refresh.FastPath {
		fast = 1
	}
	add("append.fast_path", fast)
	return nil
}

// handlerTime sends each body twice in a row, once over HTTP and once
// straight into Server.ServeHTTP with httptest, and records the
// handler's median time and the median difference of each pair: the
// cost of the network path around the handler. Pairing the two calls
// keeps the host's speed, which drifts, out of the difference.
func (r *runState) handlerTime(ctx context.Context, st *stack, path string, bodies [][]byte) error {
	var handler, transport []float64
	for _, b := range bodies {
		t0 := time.Now()
		if _, err := st.call(ctx, nil, 0, 0, "", http.MethodPost, path, b); err != nil {
			return err
		}
		e2e := time.Since(t0)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t0 = time.Now()
		st.srv.ServeHTTP(w, req)
		direct := time.Since(t0)
		if w.Code != http.StatusOK {
			return fmt.Errorf("direct %s: status %d", path, w.Code)
		}
		handler = append(handler, float64(direct.Nanoseconds())/1e3)
		transport = append(transport, float64((e2e-direct).Nanoseconds())/1e3)
	}
	r.set("serve.handler_p50_us", Median(handler), len(handler))
	r.set("serve.transport_p50_us", Median(transport), len(transport))
	return nil
}

// separation prints whether the workload's training is dominated by the
// layer it was chosen for. The shares are of the sequential train, whose
// parts add up; two-worker times do not.
func (r *runState) separation() {
	train := r.metrics["rcbt.train_seq_ms"].Value
	fmt.Fprintf(r.opts.Log, "  layer shares of rcbt.train_seq_ms: lowerbound.findall %.0f%%, core.mine_seq %.0f%%\n",
		100*r.metrics["lowerbound.findall_ms"].Value/train, 100*r.metrics["core.mine_seq_ms"].Value/train)
}

func last(xs []float64) float64 { return xs[len(xs)-1] }
