package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var s Set
	if !s.IsEmpty() {
		t.Fatal("zero value should be empty")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Contains(0) || s.Contains(100) {
		t.Fatal("zero value should contain nothing")
	}
	if s.Min() != -1 {
		t.Fatalf("Min = %d, want -1", s.Min())
	}
	if got := s.String(); got != "{}" {
		t.Fatalf("String = %q, want {}", got)
	}
}

func TestAddRemoveContains(t *testing.T) {
	var s Set
	for _, e := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s.Add(e)
		if !s.Contains(e) {
			t.Fatalf("after Add(%d), Contains(%d) = false", e, e)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Remove(64) did not remove")
	}
	s.Remove(64) // idempotent
	s.Remove(-5) // no-op
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	s.Add(64)
	s.Add(64) // idempotent
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	var s Set
	s.Add(-1)
}

func TestOf(t *testing.T) {
	s := Of(3, 1, 3, 200)
	if got := s.Elems(); !reflect.DeepEqual(got, []int{1, 3, 200}) {
		t.Fatalf("Elems = %v", got)
	}
}

func TestEqualAcrossLengths(t *testing.T) {
	a := Of(1, 2)
	b := New(1000)
	b.Add(1)
	b.Add(2)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with different capacities but same elements must be Equal")
	}
	b.Add(999)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("sets differing in a high element must not be Equal")
	}
}

func TestSubset(t *testing.T) {
	cases := []struct {
		a, b         []int
		subset, prop bool
	}{
		{nil, nil, true, false},
		{nil, []int{1}, true, true},
		{[]int{1}, nil, false, false},
		{[]int{1, 2}, []int{1, 2, 3}, true, true},
		{[]int{1, 2, 3}, []int{1, 2, 3}, true, false},
		{[]int{100}, []int{1, 2, 3}, false, false},
		{[]int{1, 200}, []int{1, 2, 200}, true, true},
	}
	for _, c := range cases {
		a, b := Of(c.a...), Of(c.b...)
		if got := a.IsSubset(b); got != c.subset {
			t.Errorf("IsSubset(%v, %v) = %v, want %v", c.a, c.b, got, c.subset)
		}
		if got := a.IsProperSubset(b); got != c.prop {
			t.Errorf("IsProperSubset(%v, %v) = %v, want %v", c.a, c.b, got, c.prop)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 64, 65)
	b := Of(2, 3, 4, 65, 130)
	if got := a.And(b).Elems(); !reflect.DeepEqual(got, []int{2, 3, 65}) {
		t.Fatalf("And = %v", got)
	}
	if got := a.Or(b).Elems(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 64, 65, 130}) {
		t.Fatalf("Or = %v", got)
	}
	if got := a.AndNot(b).Elems(); !reflect.DeepEqual(got, []int{1, 64}) {
		t.Fatalf("AndNot = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects should be true")
	}
	if a.Intersects(Of(1000)) {
		t.Fatal("Intersects with disjoint set should be false")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Of(1, 2)
	a.InPlaceOr(Of(2, 300))
	if got := a.Elems(); !reflect.DeepEqual(got, []int{1, 2, 300}) {
		t.Fatalf("InPlaceOr = %v", got)
	}
	a.InPlaceAndNot(Of(2, 999))
	if got := a.Elems(); !reflect.DeepEqual(got, []int{1, 300}) {
		t.Fatalf("InPlaceAndNot = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2)
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone must be independent of the original")
	}
	var zero Set
	c := zero.Clone()
	c.Add(5)
	if zero.Contains(5) {
		t.Fatal("Clone of zero value must be independent")
	}
}

func TestKeyAgreesWithEqual(t *testing.T) {
	a := Of(1, 2)
	b := New(512)
	b.Add(1)
	b.Add(2)
	if a.Key() != b.Key() {
		t.Fatal("equal sets must have equal keys despite capacity difference")
	}
	b.Add(400)
	if a.Key() == b.Key() {
		t.Fatal("unequal sets must have different keys")
	}
}

func TestMin(t *testing.T) {
	if got := Of(70, 3, 500).Min(); got != 3 {
		t.Fatalf("Min = %d, want 3", got)
	}
	if got := Of(64).Min(); got != 64 {
		t.Fatalf("Min = %d, want 64", got)
	}
}

func TestString(t *testing.T) {
	if got := Of(3, 1).String(); got != "{1 3}" {
		t.Fatalf("String = %q", got)
	}
}

// randSet builds a set plus its reference model from random data.
func randSet(r *rand.Rand, max int) (Set, map[int]bool) {
	var s Set
	m := map[int]bool{}
	n := r.Intn(20)
	for i := 0; i < n; i++ {
		e := r.Intn(max)
		s.Add(e)
		m[e] = true
	}
	return s, m
}

func modelElems(m map[int]bool) []int {
	out := []int{}
	for e := range m {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

func TestQuickAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, ma := randSet(r, 200)
		b, mb := randSet(r, 200)

		if got := a.Elems(); !reflect.DeepEqual(got, modelElems(ma)) {
			t.Fatalf("Elems mismatch: %v vs %v", got, modelElems(ma))
		}
		union := map[int]bool{}
		inter := map[int]bool{}
		diff := map[int]bool{}
		for e := range ma {
			union[e] = true
			if mb[e] {
				inter[e] = true
			} else {
				diff[e] = true
			}
		}
		for e := range mb {
			union[e] = true
		}
		if got := a.Or(b).Elems(); !reflect.DeepEqual(got, modelElems(union)) {
			t.Fatalf("Or mismatch")
		}
		if got := a.And(b).Elems(); !reflect.DeepEqual(got, modelElems(inter)) {
			t.Fatalf("And mismatch")
		}
		if got := a.AndNot(b).Elems(); !reflect.DeepEqual(got, modelElems(diff)) {
			t.Fatalf("AndNot mismatch")
		}
		if got := a.Intersects(b); got != (len(inter) > 0) {
			t.Fatalf("Intersects mismatch")
		}
		subset := true
		for e := range ma {
			if !mb[e] {
				subset = false
			}
		}
		if got := a.IsSubset(b); got != subset {
			t.Fatalf("IsSubset mismatch")
		}
	}
}

func TestQuickAlgebraLaws(t *testing.T) {
	gen := func(vals []uint8) Set {
		var s Set
		for _, v := range vals {
			s.Add(int(v))
		}
		return s
	}
	// De Morgan-ish laws expressible without complement.
	law := func(av, bv, cv []uint8) bool {
		a, b, c := gen(av), gen(bv), gen(cv)
		// (a ∪ b) ∩ c == (a ∩ c) ∪ (b ∩ c)
		if !a.Or(b).And(c).Equal(a.And(c).Or(b.And(c))) {
			return false
		}
		// a \ (b ∪ c) == (a \ b) \ c
		if !a.AndNot(b.Or(c)).Equal(a.AndNot(b).AndNot(c)) {
			return false
		}
		// a ∩ b ⊆ a and a ⊆ a ∪ b
		if !a.And(b).IsSubset(a) || !a.IsSubset(a.Or(b)) {
			return false
		}
		// |a| + |b| == |a ∪ b| + |a ∩ b|
		if a.Len()+b.Len() != a.Or(b).Len()+a.And(b).Len() {
			return false
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEnsureZeroesReusedCapacity: growth into spare capacity must not expose
// stale bits left behind by another Set that grew through the same backing
// array (the regression the single-resize ensure guards against).
func TestEnsureZeroesReusedCapacity(t *testing.T) {
	big := New(1024)
	big.Add(700)
	// Simulate a short set whose slice shares the polluted backing array.
	short := Set{words: big.words[:1]}
	short.Add(800)
	if short.Contains(700) {
		t.Fatal("growth into dirty capacity resurrected element 700")
	}
	if got := short.Elems(); !reflect.DeepEqual(got, []int{800}) {
		t.Fatalf("Elems = %v, want [800]", got)
	}
}

// TestInPlaceOrAliasedGrowth: s |= t where s is a shorter prefix copy
// sharing t's backing array must not lose t's high words.
func TestInPlaceOrAliasedGrowth(t *testing.T) {
	var full Set
	full.Add(3)
	full.Add(200)
	short := Set{words: full.words[:1]} // shares storage, sees only {3}
	short.InPlaceOr(full)
	if got := short.Elems(); !reflect.DeepEqual(got, []int{3, 200}) {
		t.Fatalf("aliased InPlaceOr lost elements: %v", got)
	}
	if got := full.Elems(); !reflect.DeepEqual(got, []int{3, 200}) {
		t.Fatalf("aliased InPlaceOr corrupted source: %v", got)
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		f := Full(n)
		if f.Len() != n {
			t.Fatalf("Full(%d).Len = %d", n, f.Len())
		}
		if n > 0 && (!f.Contains(0) || !f.Contains(n-1) || f.Contains(n)) {
			t.Fatalf("Full(%d) membership wrong", n)
		}
	}
}
