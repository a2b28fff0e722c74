// Package lowerbound implements FindLB (Figure 5): breadth-first search
// for the nl shortest lower-bound rules of a rule group, with items
// ranked by the discriminant power of their genes and containment tests
// done on row bitmaps.
//
// A lower bound of group G (upper bound A, support set R) is a minimal
// A' ⊆ A with R(A') = R (Lemma 5.1). Equivalently — because every row
// in R contains all of A — A' must "kill" every row outside R: each
// outside row must miss at least one item of A', and no item of A' may
// be redundant. Lower bounds are therefore exactly the minimal hitting
// sets of the outside rows' complements, which is how the search is
// implemented.
package lowerbound

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/rules"
)

// Config controls the search. The search has one behaviour for every
// caller: it lists the group's lower bounds shortest first, with no cap
// on their length, until it has NL of them or has examined its budget
// of candidates.
type Config struct {
	// NL is the number of lower bounds to return (FindLB's nl).
	NL int
	// MaxCandidates bounds the number of candidates examined, so
	// adversarial groups cannot blow up classifier construction; 0
	// means 1<<18, the budget every trainer runs. Only tests set it, to
	// stop a search part-way. The search stores only examined
	// candidates, so it also bounds the search's memory.
	MaxCandidates int
	// ItemScore ranks items for the breadth-first order (higher =
	// examined earlier, Step 1 of FindLB). When nil, items are scored by
	// the information gain of their presence against the class labels.
	ItemScore []float64
	// Workers bounds how many groups FindAll and FindAllContext search
	// at once; 0 means GOMAXPROCS. Find ignores it.
	Workers int
}

// Find returns up to cfg.NL shortest lower-bound rules of group g over
// dataset d, most discriminant item combinations first.
func Find(d *dataset.Dataset, g *rules.Group, cfg Config) []*rules.Rule {
	var s search
	return s.find(d, g, cfg, nil)
}

// search is the scratch of one FindLB search. A FindAll worker reuses
// one search for all of its groups, so its slabs grow once per worker
// rather than once per group.
//
// The search renumbers the group's m outside rows 0..m-1 and stores
// each row set over them as w = ⌈m/64⌉ words.
type search struct {
	outside *bitset.Set // rows outside the group, in dataset numbering
	missing *bitset.Set // the outside rows one item is missing from
	pos     []uint32    // pos[r] = the renumbered index of outside row r
	rows    []int       // the rows of outside or missing
	w       int
	last    uint64 // the used bits of a row set's last word

	ranked  []int            // the upper bound's items in rank order
	kill    []uint64         // the kill set of the item being classified
	key     []byte           // kill as a map key
	classOf map[string]int32 // kill set → class
	kills   []uint64         // class j's kill set: kills[j*w : (j+1)*w]
	members [][]int          // class j's items, in rank order

	cur, next level
	exact     []uint64 // rows killed by exactly one class of a cover
	cand      []int32  // the cover being emitted
	choice    []int    // emit's odometer over class members
}

// level holds the stored candidates of one BFS level: candidate i of
// size L is the class list idx[i*L : (i+1)*L] with kill union
// cover[i*w : (i+1)*w].
type level struct {
	n     int
	idx   []int32
	cover []uint64
}

// stopPoll is how many examined candidates pass between polls of the
// done channel.
const stopPoll = 1 << 12

// find is Find on s's scratch. Once done is closed it returns at its
// next poll with the lower bounds found so far; a nil done never
// closes.
func (s *search) find(d *dataset.Dataset, g *rules.Group, cfg Config, done <-chan struct{}) []*rules.Rule {
	if cfg.NL <= 0 {
		return nil
	}
	budget := cfg.MaxCandidates
	if budget <= 0 {
		budget = 1 << 18
	}
	// Degenerate group covering every row: the empty rule is its only
	// lower bound.
	if !s.setup(d, g, cfg.ItemScore) {
		return []*rules.Rule{lowerBound(g, nil)}
	}
	nc, w := int32(len(s.members)), s.w

	// Step 2: BFS over ranked class combinations by increasing size. A
	// candidate is a lower bound iff its kill union covers all outside
	// rows and removing any single class breaks coverage (minimality).
	// Supersets of a cover are never minimal, so only non-covering
	// candidates are stored, as the parents of the next level. A level
	// is expanded lazily from its parents, each child examined as it is
	// generated, so nothing past a filled quota or an exhausted budget
	// is built, and at most MaxCandidates candidates are ever stored.
	// The first level holds the single classes, the children of the
	// empty candidate.
	var found []*rules.Rule
	examined := 0
	s.cur = level{n: 1, idx: s.cur.idx[:0], cover: grow(s.cur.cover, w)}
	for size := 1; s.cur.n > 0; size++ {
		s.next = level{idx: s.next.idx[:0], cover: s.next.cover[:0]}
		for p := 0; p < s.cur.n; p++ {
			pidx := s.cur.idx[p*(size-1) : (p+1)*(size-1)]
			pc := s.cur.cover[p*w : (p+1)*w]
			j := int32(0)
			if len(pidx) > 0 {
				j = pidx[len(pidx)-1] + 1
			}
			for ; j < nc; j++ {
				kj := s.kills[int(j)*w : int(j+1)*w]
				// If kills[j] ⊆ cover(c), class j stays redundant in every
				// extension of c — no minimal cover there. If kills[j] ⊇
				// cover(c), every class of c becomes redundant once j is
				// added; the minimal covers through j are reached from
				// shorter prefixes containing j instead. Both prune.
				if len(pidx) > 0 && (subset(kj, pc) || subset(pc, kj)) {
					continue
				}
				if examined++; examined > budget || examined%stopPoll == 0 && stopped(done) {
					return found
				}
				at := len(s.next.cover)
				s.next.cover = append(s.next.cover, pc...)
				cover := s.next.cover[at:]
				for i, x := range kj {
					cover[i] |= x
				}
				if s.covers(cover) {
					s.next.cover = s.next.cover[:at]
					if s.minimal(pidx, j) {
						if found = s.emit(g, pidx, j, found, cfg.NL); len(found) >= cfg.NL {
							return found
						}
					}
					continue
				}
				if j+1 == nc { // no children to expand
					s.next.cover = s.next.cover[:at]
					continue
				}
				s.next.idx = append(append(s.next.idx, pidx...), j)
				s.next.n++
			}
		}
		s.cur, s.next = s.next, s.cur
	}
	return found
}

// setup renumbers the group's outside rows and builds its kill
// classes. It reports false when no row lies outside the group.
//
// Step 1 ranks the upper bound's items by descending score. Items are
// then grouped by identical kill sets, the outside rows they are
// missing from. Correlated gene intervals share kill sets, and any two
// same-kill items are interchangeable in every cover, so the search
// runs over one representative per class and substitutions are
// expanded on output. This is what keeps FindLB tractable on
// block-correlated expression data.
func (s *search) setup(d *dataset.Dataset, g *rules.Group, score []float64) bool {
	n := d.NumRows()
	if s.outside == nil || s.outside.Len() != n {
		s.outside, s.missing = bitset.New(n), bitset.New(n)
		s.pos, s.rows = make([]uint32, n), make([]int, 0, n)
	}
	s.outside.Fill()
	s.outside.DifferenceWith(g.Rows)
	s.rows = s.outside.AppendIndicesBelow(s.rows[:0], n)
	m := len(s.rows)
	if m == 0 {
		return false
	}
	for i, r := range s.rows {
		s.pos[r] = uint32(i)
	}
	s.w = (m + 63) / 64
	s.last = ^uint64(0) >> (uint(-m) % 64)
	s.kill = grow(s.kill, s.w)
	s.exact = grow(s.exact, s.w)

	s.ranked = append(s.ranked[:0], g.Antecedent...)
	if score == nil {
		score = DefaultItemScores(d)
	}
	ranked := s.ranked
	sort.SliceStable(ranked, func(a, b int) bool { return score[ranked[a]] > score[ranked[b]] })

	if s.classOf == nil {
		s.classOf = map[string]int32{}
	}
	clear(s.classOf)
	s.kills, s.members = s.kills[:0], s.members[:0]
	for _, it := range ranked {
		s.missing.CopyFrom(s.outside)
		s.missing.DifferenceWith(d.ItemRows(it))
		s.rows = s.missing.AppendIndicesBelow(s.rows[:0], n)
		if len(s.rows) == 0 {
			continue // kills nothing: never part of a minimal cover
		}
		clear(s.kill)
		for _, r := range s.rows {
			p := s.pos[r]
			s.kill[p/64] |= 1 << (p % 64)
		}
		s.key = s.key[:0]
		for _, x := range s.kill {
			s.key = binary.LittleEndian.AppendUint64(s.key, x)
		}
		ci, ok := s.classOf[string(s.key)]
		if !ok {
			ci = int32(len(s.members))
			s.classOf[string(s.key)] = ci
			s.kills = append(s.kills, s.kill...)
			if int(ci) < cap(s.members) {
				s.members = s.members[:ci+1] // reuse the slice a previous group grew
				s.members[ci] = s.members[ci][:0]
			} else {
				s.members = append(s.members, nil)
			}
		}
		s.members[ci] = append(s.members[ci], it)
	}
	return true
}

// covers reports whether the renumbered row set c holds every outside
// row.
//
//vet:allocfree
func (s *search) covers(c []uint64) bool {
	for _, x := range c[:len(c)-1] {
		if x != ^uint64(0) {
			return false
		}
	}
	return c[len(c)-1] == s.last
}

// minimal reports whether the cover made of classes pidx and j is
// minimal: removing any one class uncovers a row. That holds iff every
// class kills a row no other class kills, which one pass finds by
// tracking the rows killed once and the rows killed more than once.
//
//vet:allocfree
func (s *search) minimal(pidx []int32, j int32) bool {
	w := s.w
	for wi := range s.exact {
		once, twice := s.kills[int(j)*w+wi], uint64(0)
		for _, c := range pidx {
			x := s.kills[int(c)*w+wi]
			twice |= once & x
			once |= x
		}
		s.exact[wi] = once &^ twice
	}
	if !intersects(s.kills[int(j)*w:int(j+1)*w], s.exact) {
		return false
	}
	for _, c := range pidx {
		if !intersects(s.kills[int(c)*w:int(c+1)*w], s.exact) {
			return false
		}
	}
	return true
}

// emit expands the minimal representative cover pidx+j into concrete
// lower bounds by substituting class members in rank order, appending
// them to found until it holds nl rules.
func (s *search) emit(g *rules.Group, pidx []int32, j int32, found []*rules.Rule, nl int) []*rules.Rule {
	s.cand = append(append(s.cand[:0], pidx...), j)
	s.choice = grow(s.choice, len(s.cand))
	for {
		ant := make([]int, len(s.cand))
		for i, c := range s.cand {
			ant[i] = s.members[c][s.choice[i]]
		}
		sort.Ints(ant)
		found = append(found, lowerBound(g, ant))
		if len(found) >= nl {
			return found
		}
		// Advance the odometer, last position fastest.
		i := len(s.cand) - 1
		for ; i >= 0; i-- {
			if s.choice[i]++; s.choice[i] < len(s.members[s.cand[i]]) {
				break
			}
			s.choice[i] = 0
		}
		if i < 0 {
			return found
		}
	}
}

// lowerBound returns the lower-bound rule of g with the sorted
// antecedent ant.
func lowerBound(g *rules.Group, ant []int) *rules.Rule {
	return &rules.Rule{
		Antecedent: ant,
		Class:      g.Class,
		Support:    g.Support,
		Confidence: g.Confidence,
	}
}

// subset reports whether a ⊆ b.
//
//vet:allocfree
func subset(a, b []uint64) bool {
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// intersects reports whether a ∩ b ≠ ∅.
//
//vet:allocfree
func intersects(a, b []uint64) bool {
	for i, x := range a {
		if x&b[i] != 0 {
			return true
		}
	}
	return false
}

// grow returns buf resized to n zeroed elements, reusing its backing
// array when large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// stopped reports whether done is closed.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// DefaultItemScores computes per-item information gain of presence
// versus class — the discrete analogue of the paper's gene entropy
// score, used when the caller does not supply Config.ItemScore. Callers
// issuing many Find calls on one dataset should compute this once and
// pass it explicitly; it costs O(items × rows).
func DefaultItemScores(d *dataset.Dataset) []float64 {
	scores := make([]float64, d.NumItems())
	n := d.NumRows()
	classCounts := make([]int, d.NumClasses())
	for _, l := range d.Labels {
		classCounts[int(l)]++
	}
	baseH := entropy(classCounts)
	for i := 0; i < d.NumItems(); i++ {
		present := make([]int, d.NumClasses())
		d.ItemRows(i).ForEach(func(r int) bool {
			present[int(d.Labels[r])]++
			return true
		})
		absent := make([]int, d.NumClasses())
		pn := 0
		for c := range present {
			absent[c] = classCounts[c] - present[c]
			pn += present[c]
		}
		if pn == 0 || pn == n {
			scores[i] = 0
			continue
		}
		h := float64(pn)/float64(n)*entropy(present) +
			float64(n-pn)/float64(n)*entropy(absent)
		scores[i] = baseH - h
	}
	return scores
}

func entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// FindAll is FindAllContext without cancellation.
func FindAll(d *dataset.Dataset, groups []*rules.Group, cfg Config) [][]*rules.Rule {
	out, _ := FindAllContext(context.Background(), d, groups, cfg) // vetsuite:allow ctxflow -- FindAll is the documented context-free convenience wrapper over FindAllContext
	return out
}

// FindAllContext runs Find for every group, up to cfg.Workers groups at
// once, and returns results in group order, so callers stay
// deterministic. Groups share the dataset read-only. Once ctx is done
// it stops handing out groups, stops the searches in flight, and
// returns ctx.Err() with nil results.
func FindAllContext(ctx context.Context, d *dataset.Dataset, groups []*rules.Group, cfg Config) ([][]*rules.Rule, error) {
	out := make([][]*rules.Rule, len(groups))
	if len(groups) > 0 {
		// Compute the default scores once, before fan-out, rather than
		// once per group.
		if cfg.ItemScore == nil {
			cfg.ItemScore = DefaultItemScores(d)
		}
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		done := ctx.Done()
		fanOut(done, len(groups), workers, func(s *search, i int) {
			out[i] = s.find(d, groups[i], cfg, done)
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut calls fn(s, i) for every i in [0, n) on at most workers
// goroutines, each passing its own search scratch, and returns once
// they finish. It stops handing out indices once done is closed.
func fanOut(done <-chan struct{}, n, workers int, fn func(s *search, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s search
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stopped(done) {
					return
				}
				fn(&s, i)
			}
		}()
	}
	wg.Wait()
}
