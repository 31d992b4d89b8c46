// Package bitset provides a dense bit-set over small integer universes.
//
// It is the arithmetic substrate of the paper-scale hypergraph algorithms
// in this repository: hypergraph nodes are interned to dense ids, node sets
// are Sets, and subset tests, intersections and component sweeps reduce to
// word-parallel operations here.
//
// A Set is a value type backed by a slice of 64-bit words. The zero value is
// the empty set over an empty universe. Sets grow on demand; operations on
// sets of different lengths treat the missing high words as zero.
//
// Like slices, plain struct copies of a Set share their backing words: an
// in-place operation (Add, Remove, InPlaceOr, InPlaceAndNot) on one copy is
// visible through every copy that shares the storage, and growth may or may
// not carry the sharing along. Use Clone wherever an independent set is
// needed; the derivation operations (And, Or, AndNot) always return freshly
// allocated sets.
//
// A Set charges a word per 64 ids of its universe whatever its cardinality,
// so hypergraphs store their edges as sorted id lists instead (see
// internal/hypergraph) and build a Set of an edge on request.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bit set over non-negative integers.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity for elements in [0, n).
func New(n int) Set {
	if n <= 0 {
		return Set{}
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Of returns the set containing exactly the given elements.
func Of(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	if n <= 0 {
		return Set{}
	}
	words := make([]uint64, (n+wordBits-1)/wordBits)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 {
		words[len(words)-1] = (1 << uint(r)) - 1
	}
	return Set{words: words}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// ensure grows s.words to cover the given word index in one step. Growth
// within spare capacity re-slices and explicitly zeroes the uncovered words
// (they may hold stale bits when another Set copy grew through the same
// backing array); growth beyond capacity allocates with doubling, so a run
// of ascending Adds stays amortized O(1) instead of the O(n²) an
// append-one-word-at-a-time loop risks on aliased storage.
func (s *Set) ensure(word int) {
	if word < len(s.words) {
		return
	}
	if word < cap(s.words) {
		n := len(s.words)
		s.words = s.words[:word+1]
		for i := n; i <= word; i++ {
			s.words[i] = 0
		}
		return
	}
	newCap := word + 1
	if c := 2 * cap(s.words); c > newCap {
		newCap = c
	}
	words := make([]uint64, word+1, newCap)
	copy(words, s.words)
	s.words = words
}

// Add inserts e into the set. It panics if e is negative.
func (s *Set) Add(e int) {
	if e < 0 {
		panic("bitset: negative element " + strconv.Itoa(e))
	}
	w := e / wordBits
	s.ensure(w)
	s.words[w] |= 1 << uint(e%wordBits)
}

// Remove deletes e from the set if present.
func (s *Set) Remove(e int) {
	if e < 0 {
		return
	}
	w := e / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(e%wordBits)
	}
}

// Contains reports whether e is in the set.
func (s Set) Contains(e int) bool {
	if e < 0 {
		return false
	}
	w := e / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(e%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsSubset reports whether every element of s is in t.
func (s Set) IsSubset(t Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// IsProperSubset reports whether s ⊂ t strictly.
func (s Set) IsProperSubset(t Set) bool {
	return s.IsSubset(t) && !s.Equal(t)
}

// IntersectCount returns |s ∩ t| without materializing the intersection.
func (s Set) IntersectCount(t Set) int {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	count := 0
	for i := 0; i < n; i++ {
		count += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return count
}

// Intersects reports whether s and t share at least one element.
func (s Set) Intersects(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// And returns s ∩ t as a new set.
func (s Set) And(t Set) Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = s.words[i] & t.words[i]
	}
	return Set{words: w}
}

// Or returns s ∪ t as a new set.
func (s Set) Or(t Set) Set {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	w := make([]uint64, len(long))
	copy(w, long)
	for i, sw := range short {
		w[i] |= sw
	}
	return Set{words: w}
}

// AndNot returns s \ t as a new set.
func (s Set) AndNot(t Set) Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	n := len(w)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		w[i] &^= t.words[i]
	}
	return Set{words: w}
}

// InPlaceOr adds all elements of t to s.
func (s *Set) InPlaceOr(t Set) {
	if len(t.words) > len(s.words) {
		// Grow through a fresh array rather than ensure: if s is a shorter
		// copy sharing t's backing array, re-slicing and zeroing in place
		// would clobber t's live high words before they are read.
		words := make([]uint64, len(t.words))
		copy(words, s.words)
		s.words = words
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// InPlaceAndNot removes all elements of t from s.
func (s *Set) InPlaceAndNot(t Set) {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= t.words[i]
	}
}

// ForEach calls f on every element in ascending order.
func (s Set) ForEach(f func(e int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(i*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// ForEachUntil calls f on every element in ascending order until f returns
// false — the abortable iterator behind short-circuiting predicates.
func (s Set) ForEachUntil(f func(e int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the elements in ascending order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// Min returns the smallest element, or -1 if the set is empty.
func (s Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns a string usable as a map key identifying the set's contents.
// Two sets have equal keys iff they are Equal.
func (s Set) Key() string {
	// Trim trailing zero words so padding does not affect the key.
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	var b strings.Builder
	b.Grow(end * 17)
	for _, w := range s.words[:end] {
		b.WriteString(strconv.FormatUint(w, 16))
		b.WriteByte(',')
	}
	return b.String()
}

// String renders the set as "{0 3 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(e))
	})
	b.WriteByte('}')
	return b.String()
}
