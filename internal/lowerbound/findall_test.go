package lowerbound

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// wideGroup builds a group with 60 items, all present in its 20 rows,
// where each of the 180 outside rows misses miss random items. The
// fewer items an outside row misses, the more items a cover needs, and
// every BFS level is larger than the last.
func wideGroup(miss int) (*dataset.Dataset, *rules.Group) {
	r := rand.New(rand.NewSource(7))
	const rows, inside, items = 200, 20, 60
	d := &dataset.Dataset{ClassNames: []string{"C", "notC"}}
	for i := 0; i < items; i++ {
		d.Items = append(d.Items, dataset.Item{Gene: i, GeneName: "g"})
	}
	sup := bitset.New(rows)
	for row := 0; row < rows; row++ {
		skip := map[int]bool{}
		if row >= inside {
			for len(skip) < miss {
				skip[r.Intn(items)] = true
			}
		} else {
			sup.Add(row)
		}
		var its []int
		for i := 0; i < items; i++ {
			if !skip[i] {
				its = append(its, i)
			}
		}
		d.Rows = append(d.Rows, its)
		d.Labels = append(d.Labels, dataset.Label(row%2))
	}
	g := groupFor(d, d.CommonItems(sup), 0)
	return d, g
}

// TestFindAllContextCancelDuringSearch cancels FindAllContext 50 ms
// into a run of 2 048 searches of 5·10^4 candidates each on two
// workers, which takes about 1.5 s uncancelled on a 2-vCPU host: it must
// return context.Canceled and no results within 500 ms of the cancel.
func TestFindAllContextCancelDuringSearch(t *testing.T) {
	d, g := wideGroup(3) // no cover within reach: every search fills its budget
	groups := make([]*rules.Group, 2048)
	for i := range groups {
		groups[i] = g
	}
	cfg := Config{NL: 1 << 20, MaxCandidates: 5e4, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Int64
	time.AfterFunc(50*time.Millisecond, func() {
		cancelledAt.Store(time.Now().UnixNano())
		cancel()
	})
	out, err := FindAllContext(ctx, d, groups, cfg)
	returned := time.Now()
	if err == nil {
		t.Fatal("FindAllContext finished before the cancel at 50 ms; the workload no longer spans it")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("a cancelled FindAllContext must not return results")
	}
	if took := returned.Sub(time.Unix(0, cancelledAt.Load())); took > 500*time.Millisecond {
		t.Fatalf("FindAllContext returned %v after the cancel, want <= 500ms", took)
	}
}

// TestFindCancelStopsSearchMidLevel pins where a search in flight
// stops: with its done channel closed, a search returns at its first
// poll, after stopPoll-1 candidates, with what Find finds under that
// budget.
func TestFindCancelStopsSearchMidLevel(t *testing.T) {
	d, g := wideGroup(40) // covers of three items, deep in a level of 34 220
	done := make(chan struct{})
	close(done)
	cfg := Config{NL: 1 << 20}
	var s search
	got := s.find(d, g, cfg, done)
	cfg.MaxCandidates = stopPoll - 1
	if want := Find(d, g, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("stopped search returned %d rules, want the %d found within %d candidates", len(got), len(want), stopPoll-1)
	}
	if len(got) == 0 {
		t.Fatal("the stopped search found nothing; the test no longer shows where it stops")
	}
}

func TestFindAllContextCancelledBeforeStart(t *testing.T) {
	d, g := wideGroup(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := FindAllContext(ctx, d, []*rules.Group{g, g}, Config{NL: 1 << 20})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("FindAllContext on a cancelled ctx = (%d results, %v), want (nil, context.Canceled)", len(out), err)
	}
}

// TestFanOutBoundedAcrossWorkers counts the calls FindAllContext's
// fan-out has in flight: never more than its worker bound, and every
// index exactly once.
func TestFanOutBoundedAcrossWorkers(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 3, 8} {
		var inFlight, peak atomic.Int32
		var calls [n]atomic.Int32
		fanOut(nil, n, workers, func(_ *search, i int) {
			now := inFlight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			calls[i].Add(1)
			runtime.Gosched() // widen the window for an overlapping call
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
		})
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("Workers=%d: %d calls in flight at once", workers, p)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("Workers=%d: index %d handed out %d times", workers, i, c)
			}
		}
	}
}
