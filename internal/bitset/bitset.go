// Package bitset implements dense bit sets backed by uint64 words.
//
// Sets are the fundamental representation for row supports and item
// supports throughout the miner: gene expression datasets have at most a
// few hundred rows, so a row set is a handful of machine words and all
// set algebra (intersection, union, containment) reduces to a short loop
// of bitwise operations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bit set. The zero value is an empty set over an
// empty universe; use New to create a set able to hold n elements.
// Elements are non-negative ints in [0, n).
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over the universe {0, ..., n-1}.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative universe size %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over {0,...,n-1} containing the given elements.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// Add inserts element i into the set.
//
//vet:allocfree
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes element i from the set.
//
//vet:allocfree
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
//
//vet:allocfree
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
//
//vet:allocfree
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
//
//vet:allocfree
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of other. The two sets must
// share a universe size.
//
//vet:allocfree
func (s *Set) CopyFrom(other *Set) {
	s.mustMatch(other)
	copy(s.words, other.words)
}

func (s *Set) mustMatch(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, other.n))
	}
}

// IntersectWith replaces s with s ∩ other.
//
//vet:allocfree
func (s *Set) IntersectWith(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// UnionWith replaces s with s ∪ other.
//
//vet:allocfree
func (s *Set) UnionWith(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// DifferenceWith replaces s with s \ other.
//
//vet:allocfree
func (s *Set) DifferenceWith(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// IntersectInto overwrites s with a ∩ b in a single word sweep. All
// three sets must share a universe; s may alias a or b (in-place use).
//
//vet:allocfree
func (s *Set) IntersectInto(a, b *Set) {
	s.mustMatch(a)
	s.mustMatch(b)
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// IntersectCountBelow overwrites s with a ∩ b and returns the number of
// elements strictly below limit and in total, all in one word sweep —
// the fused form of IntersectInto + CountBelow + Count the enumeration
// kernel runs per node. s may alias a or b.
//
//vet:allocfree
func (s *Set) IntersectCountBelow(a, b *Set, limit int) (below, total int) {
	s.mustMatch(a)
	s.mustMatch(b)
	if limit < 0 {
		limit = 0
	}
	if limit > s.n {
		limit = s.n
	}
	full := limit / wordBits
	rem := limit % wordBits
	for i := range s.words {
		w := a.words[i] & b.words[i]
		s.words[i] = w
		c := bits.OnesCount64(w)
		total += c
		switch {
		case i < full:
			below += c
		case i == full && rem != 0:
			below += bits.OnesCount64(w & (1<<uint(rem) - 1))
		}
	}
	return below, total
}

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight
// §7-3, recursive block swap). The six passes are unrolled with
// constant masks and shift widths, and pair indexing uses k|j (the
// iteration keeps bit j of k clear, so k|j == k+j) — both indices are
// then provably in range and the compiler drops every bounds check
// from the hot loop.
func transpose64(a *[64]uint64) {
	const (
		m32 = uint64(0x00000000FFFFFFFF)
		m16 = uint64(0x0000FFFF0000FFFF)
		m8  = uint64(0x00FF00FF00FF00FF)
		m4  = uint64(0x0F0F0F0F0F0F0F0F)
		m2  = uint64(0x3333333333333333)
		m1  = uint64(0x5555555555555555)
	)
	// Each pass's butterflies are independent; runs of consecutive k are
	// unrolled ×2 to amortize loop overhead (the butterflies already
	// saturate the ALUs, so wider unrolling buys nothing).
	for k := 0; k < 32; k += 2 {
		t := (a[k] ^ (a[k|32] >> 32)) & m32
		a[k] ^= t
		a[k|32] ^= t << 32
		t = (a[k+1] ^ (a[(k+1)|32] >> 32)) & m32
		a[k+1] ^= t
		a[(k+1)|32] ^= t << 32
	}
	for base := 0; base < 64; base += 32 {
		for k := base; k < base+16; k += 2 {
			t := (a[k&63] ^ (a[(k|16)&63] >> 16)) & m16
			a[k&63] ^= t
			a[(k|16)&63] ^= t << 16
			t = (a[(k+1)&63] ^ (a[((k+1)|16)&63] >> 16)) & m16
			a[(k+1)&63] ^= t
			a[((k+1)|16)&63] ^= t << 16
		}
	}
	for base := 0; base < 64; base += 16 {
		for k := base; k < base+8; k += 2 {
			t := (a[k&63] ^ (a[(k|8)&63] >> 8)) & m8
			a[k&63] ^= t
			a[(k|8)&63] ^= t << 8
			t = (a[(k+1)&63] ^ (a[((k+1)|8)&63] >> 8)) & m8
			a[(k+1)&63] ^= t
			a[((k+1)|8)&63] ^= t << 8
		}
	}
	for base := 0; base < 64; base += 8 {
		for k := base; k < base+4; k += 2 {
			t := (a[k&63] ^ (a[(k|4)&63] >> 4)) & m4
			a[k&63] ^= t
			a[(k|4)&63] ^= t << 4
			t = (a[(k+1)&63] ^ (a[((k+1)|4)&63] >> 4)) & m4
			a[(k+1)&63] ^= t
			a[((k+1)|4)&63] ^= t << 4
		}
	}
	for base := 0; base < 64; base += 4 {
		t := (a[base&63] ^ (a[(base|2)&63] >> 2)) & m2
		a[base&63] ^= t
		a[(base|2)&63] ^= t << 2
		t = (a[(base+1)&63] ^ (a[((base+1)|2)&63] >> 2)) & m2
		a[(base+1)&63] ^= t
		a[((base+1)|2)&63] ^= t << 2
	}
	for k := 0; k < 64; k += 4 {
		t := (a[k&63] ^ (a[(k|1)&63] >> 1)) & m1
		a[k&63] ^= t
		a[(k|1)&63] ^= t << 1
		t = (a[(k+2)&63] ^ (a[((k+2)|1)&63] >> 1)) & m1
		a[(k+2)&63] ^= t
		a[((k+2)|1)&63] ^= t << 1
	}
}

// FillBelow replaces the set's contents with exactly the elements
// strictly below limit: a one-sweep "first n rows of the batch are
// live" initializer for scratch sets whose universe is a capacity
// rather than the live size.
//
//vet:allocfree
func (s *Set) FillBelow(limit int) {
	if limit < 0 {
		limit = 0
	}
	if limit > s.n {
		limit = s.n
	}
	full := limit / wordBits
	for i := 0; i < full; i++ {
		s.words[i] = ^uint64(0)
	}
	if rem := limit % wordBits; rem != 0 {
		s.words[full] = (1 << uint(rem)) - 1
		full++
	}
	for i := full; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Intersect returns a new set s ∩ other.
func (s *Set) Intersect(other *Set) *Set {
	c := s.Clone()
	c.IntersectWith(other)
	return c
}

// Union returns a new set s ∪ other.
func (s *Set) Union(other *Set) *Set {
	c := s.Clone()
	c.UnionWith(other)
	return c
}

// Difference returns a new set s \ other.
func (s *Set) Difference(other *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(other)
	return c
}

// IntersectionCount returns |s ∩ other| without allocating.
//
//vet:allocfree
func (s *Set) IntersectionCount(other *Set) int {
	s.mustMatch(other)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & other.words[i])
	}
	return c
}

// ContainsAll reports whether other ⊆ s.
//
//vet:allocfree
func (s *Set) ContainsAll(other *Set) bool {
	s.mustMatch(other)
	for i, w := range other.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ other is non-empty.
//
//vet:allocfree
func (s *Set) Intersects(other *Set) bool {
	s.mustMatch(other)
	for i, w := range s.words {
		if w&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and other contain exactly the same elements.
//
//vet:allocfree
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clear removes all elements.
//
//vet:allocfree
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe to the set.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes bits beyond the universe size in the last word.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Indices returns the elements of the set in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// AppendIndicesBelow appends the elements strictly below limit to buf
// in ascending order and returns the extended slice. When buf has
// sufficient capacity no allocation occurs — this is the no-alloc form
// of Indices the enumeration kernel feeds from its scratch arenas.
//
//vet:allocfree
func (s *Set) AppendIndicesBelow(buf []int, limit int) []int {
	if limit > s.n {
		limit = s.n
	}
	if limit <= 0 {
		return buf
	}
	full := limit / wordBits
	for wi := 0; wi < full; wi++ {
		for w := s.words[wi]; w != 0; w &= w - 1 {
			buf = append(buf, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	if rem := limit % wordBits; rem != 0 {
		for w := s.words[full] & (1<<uint(rem) - 1); w != 0; w &= w - 1 {
			buf = append(buf, full*wordBits+bits.TrailingZeros64(w))
		}
	}
	return buf
}

// ForEach calls fn for each element in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Min returns the smallest element and true, or (0, false) if empty.
func (s *Set) Min() (int, bool) {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Max returns the largest element and true, or (0, false) if empty.
func (s *Set) Max() (int, bool) {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + 63 - bits.LeadingZeros64(w), true
		}
	}
	return 0, false
}

// CountBelow returns the number of elements strictly less than limit.
//
//vet:allocfree
func (s *Set) CountBelow(limit int) int {
	if limit <= 0 {
		return 0
	}
	if limit > s.n {
		limit = s.n
	}
	full := limit / wordBits
	c := 0
	for i := 0; i < full; i++ {
		c += bits.OnesCount64(s.words[i])
	}
	if rem := limit % wordBits; rem != 0 {
		c += bits.OnesCount64(s.words[full] & ((1 << uint(rem)) - 1))
	}
	return c
}

// AnyBelow reports whether the set contains an element strictly less
// than limit that is not present in excl.
//
//vet:allocfree
func (s *Set) AnyBelow(limit int, excl *Set) bool {
	s.mustMatch(excl)
	if limit <= 0 {
		return false
	}
	if limit > s.n {
		limit = s.n
	}
	full := limit / wordBits
	for i := 0; i < full; i++ {
		if s.words[i]&^excl.words[i] != 0 {
			return true
		}
	}
	if rem := limit % wordBits; rem != 0 {
		if s.words[full]&^excl.words[full]&((1<<uint(rem))-1) != 0 {
			return true
		}
	}
	return false
}

// AnyBelowAndNot reports whether (s ∩ b) \ excl contains an element
// strictly below limit, returning at the first word that proves it.
// It fuses the final intersection step of a closure with the backward
// closedness check, so a pruned node never pays for the full product.
//
//vet:allocfree
func (s *Set) AnyBelowAndNot(limit int, b, excl *Set) bool {
	s.mustMatch(b)
	s.mustMatch(excl)
	if limit <= 0 {
		return false
	}
	if limit > s.n {
		limit = s.n
	}
	full := limit / wordBits
	for i := 0; i < full; i++ {
		if s.words[i]&b.words[i]&^excl.words[i] != 0 {
			return true
		}
	}
	if rem := limit % wordBits; rem != 0 {
		if s.words[full]&b.words[full]&^excl.words[full]&(1<<uint(rem)-1) != 0 {
			return true
		}
	}
	return false
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Key returns a compact string usable as a map key identifying the set's
// contents. Sets over the same universe have equal keys iff they are
// equal.
func (s *Set) Key() string {
	b := make([]byte, len(s.words)*8)
	for i, w := range s.words {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	return string(b)
}

// Hash64 returns a 64-bit FNV-1a hash of the set's contents, folding
// whole words. Equal sets over one universe hash identically; distinct
// sets may collide, so deduplication must confirm with Equal. Unlike
// Key it materializes nothing on the heap.
//
//vet:allocfree
func (s *Set) Hash64() uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for _, w := range s.words {
		h = (h ^ w) * prime64
	}
	return h
}
