// Package visitoralias exercises the arena-aliasing analyzer: visitor
// hooks must not retain parameter-derived bitsets or slices without an
// intervening Clone()/copy.
package visitoralias

import "repro/internal/bitset"

// group mimics a mined rule group that outlives the visitor event.
type group struct {
	rows *bitset.Set
	pos  []int
}

type keeper struct {
	last   *bitset.Set
	groups []group
	ch     chan []int
}

var lastRows *bitset.Set

// OnGroup is a visitor hook: rows and xPos alias the enumeration arena.
func (k *keeper) OnGroup(rows *bitset.Set, xPos []int) {
	k.last = rows   // want `stores arena-aliased rows into k.last`
	lastRows = rows // want `stores arena-aliased rows into package variable lastRows`
	k.groups = append(k.groups, group{
		rows: rows,                        // want `composite literal captures arena-aliased rows`
		pos:  append([]int(nil), xPos...), // ok: spread-append copies the ints out
	})
	k.ch <- xPos  // want `sends arena-aliased xPos on a channel`
	go scan(xPos) // want `passes arena-aliased xPos to a goroutine`

	k.keep(rows) // the report lands inside keep, on the retaining store

	clean := rows.Clone()
	k.last = clean // ok: cloned at the event boundary
}

// keep retains its argument; reached interprocedurally from OnGroup.
func (k *keeper) keep(s *bitset.Set) {
	k.last = s // want `stores arena-aliased s into k.last`
}

// UpdateThresholds is the second hook: taint flows through locals.
func (k *keeper) UpdateThresholds(minsups []int) {
	local := minsups
	k.ch <- local // want `sends arena-aliased local on a channel`
	copied := append([]int(nil), minsups...)
	k.ch <- copied // ok: copied
}

// PruneOnEntry is the entry hook: the pending row set x and the
// candidate slice alias the arena too.
func (k *keeper) PruneOnEntry(x *bitset.Set, candPos []int) bool {
	k.last = x                                // want `stores arena-aliased x into k.last`
	k.ch <- candPos                           // want `sends arena-aliased candPos on a channel`
	return scan(candPos) > 0 && x.Contains(0) // ok: scanning is not retaining
}

// scan only reads; calling it with tainted arguments is fine.
func scan(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

type allower struct {
	last *bitset.Set
}

func (a *allower) OnGroup(rows *bitset.Set, xPos []int) {
	a.last = rows //vet:ignore visitoralias fixture: suppression must work
	_ = xPos
}

// event mirrors the streaming-merge engine's buffered visitor events:
// a fork records what it saw so the parent can replay it later, long
// after the arena slot has been rewritten.
type event struct {
	rows *bitset.Set
	xPos []int
}

type streamer struct {
	events []event
	out    chan []event
}

// OnGroup is the positive shape of the steal-time-clone pattern: every
// arena-aliased argument is copied at the event boundary, so the
// buffered event — and the sealed batch a Flush later ships across
// goroutines — owns its state outright.
func (s *streamer) OnGroup(rows *bitset.Set, xPos []int) {
	s.events = append(s.events, event{
		rows: rows.Clone(),                // ok: cloned at the event boundary
		xPos: append([]int(nil), xPos...), // ok: ints copied out
	})
}

// Flush seals the buffered events into a batch; sending it onward is
// fine because nothing in it aliases the arena.
func (s *streamer) Flush() {
	batch := s.events
	s.events = nil
	s.out <- batch // ok: batch holds only event-boundary copies
}
