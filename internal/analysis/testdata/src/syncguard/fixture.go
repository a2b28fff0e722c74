// Package syncguard exercises the concurrency-preparation analyzer.
package syncguard

import (
	"sync"

	"repro/internal/bitset"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

func (g *guarded) bump() { // ok: pointer receiver
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (g guarded) peek() int { // want `receiver passes a value containing sync.Mutex`
	return g.n
}

func byValueParam(g guarded) int { // want `parameter passes a value containing sync.Mutex`
	return g.n
}

func copyAssign(g *guarded) {
	h := *g // want `assignment copies a value containing sync.Mutex`
	_ = h
}

func rangeCopy(gs []guarded) {
	for _, g := range gs { // want `range value copies a value containing sync.Mutex`
		_ = g.n
	}
}

func okPointers(gs []*guarded) {
	for _, g := range gs { // ok: pointers copy fine
		g.bump()
	}
}

func badCapture(s *bitset.Set, done chan struct{}) {
	go func() {
		s.Add(1) // want `goroutine captures mutable bitset s`
		close(done)
	}()
}

func okClonePassed(s *bitset.Set, done chan struct{}) {
	go func(c *bitset.Set) {
		c.Add(1) // ok: the goroutine owns its clone
		close(done)
	}(s.Clone())
}

func okAnnotatedCapture(s *bitset.Set, done chan struct{}) {
	go func() {
		_ = s.Count() // vetsuite:allow syncguard -- fixture: deliberate read-only sharing
		close(done)
	}()
}

// job mirrors the parallel engine's worker pool: per-task state holding
// bitsets is cloned on the dispatching goroutine before any worker
// starts, and workers reach it only by indexing the task slice.
type job struct {
	x *bitset.Set
}

func consume(j job) { j.x.Add(1) }

func okPrebuiltTasks(src *bitset.Set, done chan struct{}) {
	jobs := make([]job, 2)
	for i := range jobs {
		jobs[i] = job{x: src.Clone()}
	}
	go func() {
		for i := range jobs {
			consume(jobs[i]) // ok: each prebuilt clone is exclusively owned
		}
		close(done)
	}()
}

func badFieldCapture(j job, done chan struct{}) {
	go func() {
		j.x.Add(1) // want `goroutine captures mutable bitset x`
		close(done)
	}()
}

// deque is a mutex-guarded per-worker task queue of the kind a
// work-stealing pool uses. Tasks enter it carrying bitsets copied out
// of the spawner's arena at offload time, so whichever goroutine later
// pops or steals a task owns its state exclusively — the positive
// shape of the steal-time-clone pattern.
type deque struct {
	mu    sync.Mutex
	tasks []job
}

func (d *deque) push(j job) {
	d.mu.Lock()
	d.tasks = append(d.tasks, j)
	d.mu.Unlock()
}

func (d *deque) stealHalf() []job {
	d.mu.Lock()
	n := (len(d.tasks) + 1) / 2
	batch := make([]job, n)
	copy(batch, d.tasks[:n])
	d.tasks = append(d.tasks[:0], d.tasks[n:]...)
	d.mu.Unlock()
	return batch
}

func okOffloadThenSteal(src *bitset.Set, done chan struct{}) {
	d := &deque{}
	// Offload: the spawner clones arena state into the task before it
	// becomes visible to thieves.
	d.push(job{x: src.Clone()})
	d.push(job{x: src.Clone()})
	go func() {
		// Thief: every stolen task owns its cloned state outright.
		for _, j := range d.stealHalf() {
			consume(j) // ok: ownership moved at offload time, under the lock
		}
		close(done)
	}()
	src.Add(1) // the spawner keeps mutating its own arena freely
}

func badOffloadWithoutClone(src *bitset.Set, done chan struct{}) {
	d := &deque{}
	d.push(job{x: src}) // the alias escapes into the deque...
	go func() {
		for _, j := range d.stealHalf() {
			_ = j
		}
		close(done)
	}()
	go func() {
		src.Add(1) // want `goroutine captures mutable bitset src`
	}()
}
