package benchmark

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when a request takes time or a generator
// sleeps until a later due time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time, halt <-chan struct{}) bool {
	select {
	case <-halt:
		return false
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	return true
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopDueTime checks that a stall is charged to the requests
// queued behind it: latency runs from the due time, and the lateness of
// each send is recorded.
func TestOpenLoopDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	service := []time.Duration{25, 5, 5, 5, 5}
	samples := OpenLoop(context.Background(), nil, clk, 100, len(service), 1, func(_ context.Context, i int) error {
		clk.advance(service[i] * time.Millisecond)
		return nil
	})
	// Due every 10 ms; the first request takes 25 ms.
	wantLat := []float64{25, 20, 15, 10, 5}
	wantLate := []float64{0, 15, 10, 5, 0}
	if len(samples) != len(service) {
		t.Fatalf("%d samples, want %d", len(samples), len(service))
	}
	for i, s := range samples {
		if got := ms(s.Latency()); got != wantLat[i] {
			t.Errorf("request %d latency %v ms, want %v", i, got, wantLat[i])
		}
		if got := ms(s.Late()); got != wantLate[i] {
			t.Errorf("request %d late %v ms, want %v", i, got, wantLate[i])
		}
	}
	st := Summarize(samples)
	if st.P50 != 15 || st.P99 != 25 || st.LateP99 != 15 || st.Failed != 0 {
		t.Errorf("summary %+v, want p50 15, p99 25, late p99 15, no failures", st)
	}
	if st.Elapsed != 45*time.Millisecond {
		t.Errorf("elapsed %v, want 45ms (first due to last reply)", st.Elapsed)
	}
}

// TestOpenLoopHalt checks that halting drops unsent requests instead of
// failing them, and that failures are counted but kept out of latency.
func TestOpenLoopHalt(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	halt := make(chan struct{})
	samples := OpenLoop(context.Background(), halt, clk, 10, 100, 1, func(_ context.Context, i int) error {
		clk.advance(time.Millisecond)
		switch i {
		case 1:
			return errors.New("refused")
		case 2:
			close(halt)
		}
		return nil
	})
	if len(samples) != 3 {
		t.Fatalf("%d samples after halting at request 2, want 3", len(samples))
	}
	st := Summarize(samples)
	if st.Sent != 3 || st.Failed != 1 || st.P99 != 1 {
		t.Errorf("summary %+v, want 3 sent, 1 failed, p99 over the 2 successes = 1 ms", st)
	}
}

func TestClosedLoop(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	samples := ClosedLoop(context.Background(), nil, clk, 100*time.Millisecond, 1, func(context.Context, int) error {
		clk.advance(30 * time.Millisecond)
		return nil
	})
	// Sent at 0, 30, 60 and 90 ms; the next would start at 120.
	if len(samples) != 4 {
		t.Fatalf("%d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if s.Late() != 0 || ms(s.Latency()) != 30 || s.Index != i {
			t.Errorf("sample %d: late %v latency %v, want 0 and 30ms", i, s.Late(), s.Latency())
		}
	}
}
