package benchmark

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock is the load generators' time source; tests substitute a fake.
type Clock interface {
	Now() time.Time
	// SleepUntil blocks until t and reports true, or returns false as
	// soon as halt is closed.
	SleepUntil(t time.Time, halt <-chan struct{}) bool
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time, halt <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-halt:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-halt:
		return false
	case <-timer.C:
		return true
	}
}

// Sample is one request a generator issued: when it was due, when it
// was sent and when its reply had been read.
type Sample struct {
	Index           int
	Due, Start, End time.Time
	Err             error
}

// Latency runs from when the request was due, so in an open loop it
// includes the wait a stall imposes on the requests queued behind it.
func (s Sample) Latency() time.Duration { return s.End.Sub(s.Due) }

// Late is how long after its due time the request was sent.
func (s Sample) Late() time.Duration { return s.Start.Sub(s.Due) }

// Op performs request i; a non-nil error counts the request as failed.
type Op func(ctx context.Context, i int) error

// OpenLoop sends up to n requests from workers goroutines, request i
// due at start + i/rate whether or not earlier ones have finished: the
// arrival schedule of independent users. With fewer workers than the
// backlog needs, requests wait for a worker and their lateness grows.
// Closing halt ends the schedule early; requests not yet sent are
// dropped, not failed. Ops run under ctx, so halt is ctx.Done() or the
// Done of a context derived from ctx. Samples come back in index order.
func OpenLoop(ctx context.Context, halt <-chan struct{}, clk Clock, rate float64, n, workers int, op Op) []Sample {
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.Now()
	var (
		mu      sync.Mutex
		next    int
		samples []Sample
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if !clk.SleepUntil(due, halt) {
					return
				}
				s := Sample{Index: i, Due: due, Start: clk.Now()}
				s.Err = op(ctx, i)
				s.End = clk.Now()
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].Index < samples[b].Index })
	return samples
}

// ClosedLoop runs workers goroutines that each send their next request
// as soon as the previous reply is read, for dur or until halt closes:
// callers that wait for a reply, measuring capacity. A request is due
// when it is sent.
func ClosedLoop(ctx context.Context, halt <-chan struct{}, clk Clock, dur time.Duration, workers int, op Op) []Sample {
	end := clk.Now().Add(dur)
	var (
		mu      sync.Mutex
		next    int
		samples []Sample
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-halt:
					return
				default:
				}
				now := clk.Now()
				if !now.Before(end) {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				s := Sample{Index: i, Due: now, Start: now}
				s.Err = op(ctx, i)
				s.End = clk.Now()
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].Index < samples[b].Index })
	return samples
}

// LoadStats summarizes one phase of a generator.
type LoadStats struct {
	Sent, Failed int
	// P50, P90 and P99 are latencies of the successful requests (ms).
	P50, P90, P99 float64
	// LateP99 is the 99th percentile of send lateness (ms).
	LateP99 float64
	// Elapsed runs from the first request's due time to the last reply.
	Elapsed time.Duration
}

// Summarize computes a phase's LoadStats.
func Summarize(samples []Sample) LoadStats {
	st := LoadStats{Sent: len(samples)}
	var lat, late []float64
	var first, last time.Time
	for i, s := range samples {
		if i == 0 || s.Due.Before(first) {
			first = s.Due
		}
		if s.End.After(last) {
			last = s.End
		}
		late = append(late, ms(s.Late()))
		if s.Err != nil {
			st.Failed++
			continue
		}
		lat = append(lat, ms(s.Latency()))
	}
	if len(samples) > 0 {
		st.Elapsed = last.Sub(first)
		st.LateP99 = Percentile(late, 99)
	}
	if len(lat) > 0 {
		st.P50, st.P90, st.P99 = Percentile(lat, 50), Percentile(lat, 90), Percentile(lat, 99)
	}
	return st
}
