package bitset

import "testing"

// The fused kernels (IntersectInto, IntersectCountBelow,
// AppendIndicesBelow, AnyBelowAndNot, Hash64) exist so the enumeration
// hot loop does one word sweep where the composable API does three.
// Each test below pins the fused form against the naive composition it
// replaces; FuzzFusedOps does the same over fuzz-chosen sets and
// limits.

func TestIntersectInto(t *testing.T) {
	a := FromIndices(190, 0, 5, 63, 64, 100, 189)
	b := FromIndices(190, 5, 63, 65, 100, 150)
	want := a.Intersect(b)

	dst := New(190)
	dst.Fill() // stale contents must be fully overwritten
	dst.IntersectInto(a, b)
	if !dst.Equal(want) {
		t.Errorf("IntersectInto = %v, want %v", dst, want)
	}

	// Aliasing: s may be a or b.
	sa := a.Clone()
	sa.IntersectInto(sa, b)
	if !sa.Equal(want) {
		t.Errorf("aliased IntersectInto(s, s, b) = %v, want %v", sa, want)
	}
	sb := b.Clone()
	sb.IntersectInto(a, sb)
	if !sb.Equal(want) {
		t.Errorf("aliased IntersectInto(s, a, s) = %v, want %v", sb, want)
	}
}

func TestIntersectCountBelow(t *testing.T) {
	a := FromIndices(190, 0, 5, 63, 64, 100, 189)
	b := FromIndices(190, 0, 5, 63, 64, 150, 189)
	want := a.Intersect(b)
	for _, limit := range []int{-3, 0, 1, 5, 6, 63, 64, 65, 100, 190, 500} {
		dst := New(190)
		below, total := dst.IntersectCountBelow(a, b, limit)
		if !dst.Equal(want) {
			t.Fatalf("limit %d: result %v, want %v", limit, dst, want)
		}
		if below != want.CountBelow(limit) || total != want.Count() {
			t.Errorf("limit %d: (below,total) = (%d,%d), want (%d,%d)",
				limit, below, total, want.CountBelow(limit), want.Count())
		}
	}
}

func TestAppendIndicesBelow(t *testing.T) {
	s := FromIndices(190, 0, 5, 63, 64, 100, 189)
	for _, limit := range []int{-1, 0, 1, 64, 65, 101, 190, 400} {
		got := s.AppendIndicesBelow(nil, limit)
		var want []int
		for _, i := range s.Indices() {
			if i < limit {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("limit %d: %v, want %v", limit, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("limit %d: %v, want %v", limit, got, want)
			}
		}
	}

	// With sufficient capacity the append must not allocate.
	buf := make([]int, 0, 190)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendIndicesBelow(buf[:0], 190)
	}); allocs != 0 {
		t.Errorf("AppendIndicesBelow with capacity: %.1f allocs/op, want 0", allocs)
	}
}

func TestAnyBelowAndNot(t *testing.T) {
	s := FromIndices(190, 2, 63, 64, 100)
	b := FromIndices(190, 2, 63, 64, 150)
	naive := func(limit int, excl *Set) bool {
		inter := s.Intersect(b)
		inter.DifferenceWith(excl)
		for _, i := range inter.Indices() {
			if i < limit {
				return true
			}
		}
		return false
	}
	for _, limit := range []int{-1, 0, 2, 3, 63, 64, 65, 190, 400} {
		for _, excl := range []*Set{New(190), FromIndices(190, 2), FromIndices(190, 2, 63, 64)} {
			if got, want := s.AnyBelowAndNot(limit, b, excl), naive(limit, excl); got != want {
				t.Errorf("AnyBelowAndNot(%d, b, %v) = %v, want %v", limit, excl, got, want)
			}
		}
	}
}

func TestHash64(t *testing.T) {
	a := FromIndices(190, 0, 63, 64, 189)
	if a.Hash64() != a.Clone().Hash64() {
		t.Error("equal sets hash differently")
	}
	b := a.Clone()
	b.Remove(63)
	if a.Hash64() == b.Hash64() {
		t.Error("single-bit difference not reflected in hash (FNV-1a should separate these)")
	}
	if New(0).Hash64() != New(0).Hash64() {
		t.Error("empty sets hash differently")
	}
}

func TestFillBelow(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 190} {
		for _, limit := range []int{-4, 0, 1, 63, 64, 65, 100, n, n + 7} {
			s := New(n)
			s.Fill() // pre-dirty: FillBelow must also clear bits >= limit
			s.FillBelow(limit)
			want := New(n)
			for i := 0; i < n && i < limit; i++ {
				want.Add(i)
			}
			if !s.Equal(want) {
				t.Errorf("n=%d FillBelow(%d) = %v, want %v", n, limit, s, want)
			}
		}
	}
}

// FuzzBatchKernel pins FillBelow, the BatchScorer's live-row mask,
// against the naive element loop over fuzz-chosen universes and limits.
func FuzzBatchKernel(f *testing.F) {
	f.Add([]byte{64, 2, 0, 1, 1, 2, 0, 63})
	f.Add([]byte{130, 3, 0, 100, 1, 64, 2, 65, 0, 129})
	f.Add([]byte{190, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%190 + 1
		limit := int(data[1]) % (n + 10)
		got := New(n)
		got.Fill()
		got.FillBelow(limit)
		naive := New(n)
		for i := 0; i < n && i < limit; i++ {
			naive.Add(i)
		}
		if !got.Equal(naive) {
			t.Errorf("FillBelow(%d) = %v, want %v", limit, got, naive)
		}
	})
}

// FuzzFusedOps pins every fused kernel against the naive composition it
// replaced, over fuzz-chosen universes, contents and limits.
func FuzzFusedOps(f *testing.F) {
	f.Add([]byte{64, 63, 0, 1, 2, 3, 63, 63, 63})
	f.Add([]byte{130, 100, 7, 0, 9, 2, 64, 1, 65, 0, 129, 2})
	f.Add([]byte{190, 0, 5, 0, 5, 1, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%190 + 1
		limit := int(data[1]) % (n + 10)
		s, b, excl := New(n), New(n), New(n)
		for ops := data[2:]; len(ops) >= 2; ops = ops[2:] {
			arg := int(ops[1]) % n
			switch ops[0] % 3 {
			case 0:
				s.Add(arg)
			case 1:
				b.Add(arg)
			case 2:
				excl.Add(arg)
			}
		}
		inter := s.Intersect(b)

		dst := New(n)
		dst.Fill()
		below, total := dst.IntersectCountBelow(s, b, limit)
		if !dst.Equal(inter) {
			t.Errorf("IntersectCountBelow result %v, want %v", dst, inter)
		}
		if below != inter.CountBelow(limit) || total != inter.Count() {
			t.Errorf("IntersectCountBelow = (%d,%d), want (%d,%d)",
				below, total, inter.CountBelow(limit), inter.Count())
		}

		dst2 := New(n)
		dst2.IntersectInto(s, b)
		if !dst2.Equal(inter) {
			t.Errorf("IntersectInto result %v, want %v", dst2, inter)
		}

		got := s.AppendIndicesBelow(nil, limit)
		var want []int
		for _, i := range s.Indices() {
			if i < limit {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("AppendIndicesBelow = %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendIndicesBelow = %v, want %v", got, want)
			}
		}

		diff := inter.Difference(excl)
		wantAny := false
		for _, i := range diff.Indices() {
			if i < limit {
				wantAny = true
				break
			}
		}
		if gotAny := s.AnyBelowAndNot(limit, b, excl); gotAny != wantAny {
			t.Errorf("AnyBelowAndNot(%d) = %v, want %v", limit, gotAny, wantAny)
		}

		// Hash64 must agree with Equal on these three sets pairwise.
		sets := []*Set{s, b, excl, inter}
		for i, x := range sets {
			for _, y := range sets[i:] {
				if x.Equal(y) && x.Hash64() != y.Hash64() {
					t.Errorf("equal sets %v hash differently", x)
				}
			}
		}
	})
}
