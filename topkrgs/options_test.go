package topkrgs_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/topkrgs"
)

func TestMineOptionSentinels(t *testing.T) {
	ctx := context.Background()
	d, _ := dataset.RunningExample()
	for name, tc := range map[string]struct {
		d    *topkrgs.Dataset
		opts topkrgs.MineOptions
		want error
	}{
		"nil dataset":       {nil, topkrgs.MineOptions{}, topkrgs.ErrNilDataset},
		"negative k":        {d, topkrgs.MineOptions{K: -1}, topkrgs.ErrBadK},
		"negative minsup":   {d, topkrgs.MineOptions{Minsup: -2}, topkrgs.ErrBadMinsup},
		"class too large":   {d, topkrgs.MineOptions{Class: 9}, topkrgs.ErrBadClass},
		"negative class":    {d, topkrgs.MineOptions{Class: -1}, topkrgs.ErrBadClass},
		"negative maxnodes": {d, topkrgs.MineOptions{MaxNodes: -1}, topkrgs.ErrBadOption},
		"negative timeout":  {d, topkrgs.MineOptions{Timeout: -time.Second}, topkrgs.ErrBadOption},
		"negative stride":   {d, topkrgs.MineOptions{ProgressEvery: -1}, topkrgs.ErrBadOption},
	} {
		if _, err := topkrgs.Mine(ctx, tc.d, tc.opts); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

func TestMineZeroOptionsDefaults(t *testing.T) {
	// MineOptions{} must mine class 0 with k=10 and minsup=ceil(0.7·n).
	d, _ := dataset.RunningExample()
	res, err := topkrgs.Mine(context.Background(), d, topkrgs.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 has 3 rows -> default minsup ceil(2.1) = 3... which no
	// group reaches except those covering all three rows; the mine must
	// still succeed and produce per-row lists.
	if len(res.PerRow) == 0 {
		t.Fatal("zero-options mine produced no per-row lists")
	}
}

// TestMineProgress asserts the facade forwards the progress hook: the
// snapshots are monotone and the final one matches the run's stats.
func TestMineProgress(t *testing.T) {
	d, _ := dataset.RunningExample()
	var snaps []topkrgs.ProgressSnapshot
	res, err := topkrgs.Mine(context.Background(), d, topkrgs.MineOptions{
		Minsup: 2, K: 2, ProgressEvery: 1,
		Progress: func(p topkrgs.ProgressSnapshot) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Nodes < snaps[i-1].Nodes || snaps[i].Groups < snaps[i-1].Groups {
			t.Fatalf("snapshots regressed at %d: %+v -> %+v", i, snaps[i-1], snaps[i])
		}
	}
	last := snaps[len(snaps)-1]
	if last.Nodes != int64(res.Stats.Nodes) || last.Groups != int64(res.Stats.Groups) {
		t.Fatalf("final snapshot %+v != stats %+v", last, res.Stats)
	}
	if last.BudgetRemaining != -1 {
		t.Fatalf("unbounded run: BudgetRemaining = %d, want -1", last.BudgetRemaining)
	}
}

func TestMineCancellation(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := topkrgs.Mine(ctx, d, topkrgs.MineOptions{Minsup: 2, K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled mine must not return a result")
	}
}

func TestMineTimeout(t *testing.T) {
	d, _ := dataset.RunningExample()
	_, err := topkrgs.Mine(context.Background(), d,
		topkrgs.MineOptions{Minsup: 2, K: 1, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestTrainRCBTCancellation is the facade-path regression test for the
// bug where caller context was ignored: a cancelled context must stop
// training hard with ctx.Err().
func TestTrainRCBTCancellation(t *testing.T) {
	d, _ := dataset.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clf, err := topkrgs.TrainRCBT(ctx, d, topkrgs.RCBTConfig{K: 2, NL: 3, MinsupFrac: 0.5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if clf != nil {
		t.Fatal("cancelled training must not return a classifier")
	}
}

func TestTrainRCBTZeroConfig(t *testing.T) {
	d, _ := dataset.RunningExample()
	clf, err := topkrgs.TrainRCBT(context.Background(), d, topkrgs.RCBTConfig{})
	if err != nil {
		t.Fatalf("zero RCBTConfig must train the paper defaults: %v", err)
	}
	if clf.NumClassifiers() < 1 && clf.Default() < 0 {
		t.Fatal("degenerate classifier")
	}
}
