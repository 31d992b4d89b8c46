package hypergraph

import (
	"math/bits"
	"strconv"
	"strings"
)

// Fingerprint128 is the 128-bit streaming identity of a hypergraph: an
// FNV-128a digest of an injective encoding of the edge sequence (plus any
// isolated nodes). It keys the engine memo — equal digests are treated as
// equal identities without a canonical-string comparison. For the random
// and structured workloads this library targets, a 128-bit accidental
// collision is negligible; FNV is not collision-resistant against
// adversarially crafted inputs, though, so a service memoizing verdicts
// for untrusted schemas should not rely on the digest as a security
// boundary (a keyed, collision-resistant identity is a ROADMAP item).
// Unlike Fingerprint it streams over the member list without materializing
// the O(total name length) canonical string, once per hypergraph on first
// use, and FromIDs-built hypergraphs hash raw node ids instead of
// synthesizing "N<k>" names. The two construction modes are
// domain-separated by a leading mode byte, so a name-built and an id-built
// hypergraph never collide by accident (the same content built both ways
// may already fingerprint differently — see Fingerprint).
type Fingerprint128 struct {
	Hi, Lo uint64
}

// Add returns the 128-bit modular sum f + g. Together with Sub it is the
// commutative, deletion-capable fold the dynamic layer maintains per
// connected component: a component's fingerprint is the sum of its member
// edges' digests (EdgeDigestNames), so inserting an edge adds its digest,
// deleting one subtracts it, and merging two components adds their sums —
// all in O(1), with no rescan of the surviving edges. The fold is
// order-insensitive by construction, which is exactly right for a set of
// edges whose membership churns. Like the streaming digest it is not
// collision-resistant against adversarial inputs (sums are even easier to
// target than FNV preimages); the engine's WithKeyedDigest option is the
// hardened variant.
func (f Fingerprint128) Add(g Fingerprint128) Fingerprint128 {
	lo, carry := bits.Add64(f.Lo, g.Lo, 0)
	hi, _ := bits.Add64(f.Hi, g.Hi, carry)
	return Fingerprint128{Hi: hi, Lo: lo}
}

// Sub returns the 128-bit modular difference f - g, the deletion half of the
// commutative component fold (see Add).
func (f Fingerprint128) Sub(g Fingerprint128) Fingerprint128 {
	lo, borrow := bits.Sub64(f.Lo, g.Lo, 0)
	hi, _ := bits.Sub64(f.Hi, g.Hi, borrow)
	return Fingerprint128{Hi: hi, Lo: lo}
}

// IsZero reports whether the fingerprint is the zero value — the empty
// component fold.
func (f Fingerprint128) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// EdgeDigestNames digests one edge given as node names: the unit of the
// dynamic layer's commutative component fold (see Fingerprint128.Add). The
// caller passes the names in a canonical order (the dynamic workspace sorts
// them), so the same edge content digests identically in every workspace
// regardless of node-id assignment — which is what lets unrelated tenants
// sharing a component hit the same engine memo entry. The encoding is the
// name-mode edge token stream of the streaming fingerprint (node count,
// then length-prefixed names), domain-separated by its own leading byte so
// an edge digest never collides with a whole-hypergraph digest by accident.
func EdgeDigestNames(names []string) Fingerprint128 {
	s := &fpState{hi: fnvOffset128Hi, lo: fnvOffset128Lo}
	s.writeByte(modeEdgeUnit)
	s.writeUvarint(uint64(len(names)))
	for _, n := range names {
		s.writeString(n)
	}
	return Fingerprint128{Hi: s.hi, Lo: s.lo}
}

// FNV-128a constants (offset basis and prime), per the FNV specification.
const (
	fnvOffset128Hi = 0x6c62272e07bb0142
	fnvOffset128Lo = 0x62b821756295c58d
	fnvPrime128Hi  = 1 << 24 // the 128-bit FNV prime is 2^88 + 2^8 + 0x3b
	fnvPrime128Lo  = 0x13b
)

// Construction-mode domain separators for the streaming digest.
const (
	modeNames    byte = 1 // interned node names (New / name-mode Builder)
	modeIDs      byte = 2 // raw ids with synthetic names (FromIDs / id mode)
	modeEdgeUnit byte = 3 // standalone per-edge digest (EdgeDigestNames)
)

// fpState streams FNV-128a over a token encoding (see encode).
type fpState struct {
	hi, lo uint64
}

// writeByte folds one byte: XOR into the low word, then multiply the
// 128-bit state by the FNV prime (hi·2⁶⁴+lo)·(P_hi·2⁶⁴+P_lo) mod 2¹²⁸.
func (s *fpState) writeByte(b byte) {
	lo := s.lo ^ uint64(b)
	carry, newLo := bits.Mul64(lo, fnvPrime128Lo)
	s.hi = carry + s.hi*fnvPrime128Lo + lo*fnvPrime128Hi
	s.lo = newLo
}

func (s *fpState) writeUvarint(v uint64) {
	for v >= 0x80 {
		s.writeByte(byte(v) | 0x80)
		v >>= 7
	}
	s.writeByte(byte(v))
}

func (s *fpState) writeString(x string) {
	s.writeUvarint(uint64(len(x)))
	for i := 0; i < len(x); i++ {
		s.writeByte(x[i])
	}
}

// tokenWriter is the sink of encode: the FNV state of Fingerprint128 and
// the SipHash state of KeyedDigest.
type tokenWriter interface {
	writeByte(b byte)
	writeUvarint(v uint64)
	writeString(x string)
}

// encode writes h's injective encoding: a mode byte, the edge count, per
// edge a node-count prefix followed by length-prefixed names (name mode) or
// varint ids (id mode), then the isolated nodes' count and members in id
// order. Every token is prefix-free and the counts delimit the sections,
// so the encoding is injective in (mode, edge sequence, isolated nodes).
func (h *Hypergraph) encode(w tokenWriter) {
	node := func(id int) {
		if h.names == nil {
			w.writeUvarint(uint64(id))
		} else {
			w.writeString(h.names[id])
		}
	}
	if h.names == nil {
		w.writeByte(modeIDs)
	} else {
		w.writeByte(modeNames)
	}
	w.writeUvarint(uint64(h.NumEdges()))
	for i := range h.NumEdges() {
		ids := h.Members(i)
		w.writeUvarint(uint64(len(ids)))
		for _, id := range ids {
			node(int(id))
		}
	}
	iso := h.isolated()
	w.writeUvarint(uint64(iso.Len()))
	iso.ForEach(node)
}

// Fingerprint128 returns the streaming identity, computed on first use and
// cached on the hypergraph. Safe for concurrent use.
func (h *Hypergraph) Fingerprint128() Fingerprint128 {
	h.fpOnce.Do(func() {
		s := &fpState{hi: fnvOffset128Hi, lo: fnvOffset128Lo}
		h.encode(s)
		h.fp128 = Fingerprint128{Hi: s.hi, Lo: s.lo}
	})
	return h.fp128
}

// Fingerprint renders the hypergraph's order-sensitive canonical form: each
// edge as its node names in id order, edges in stored order, plus any
// isolated nodes. Equal fingerprints imply the same node set and identical
// edge sequences (as sets of names) — exactly the identity under which
// acyclicity verdicts, classifications, and join trees (whose parent arrays
// are indexed by edge position) are interchangeable. The engine memo keys
// on the streaming Fingerprint128 digest of the same encoding instead of
// this string. The converse holds within one construction route but not
// across routes: New assigns ids in sorted-name order while FromIDs keeps
// the caller's numeric order, so the same content built both ways may
// fingerprint differently (costing a duplicate memo entry, never a wrong
// answer). CanonicalString is the edge-order-insensitive sibling.
func (h *Hypergraph) Fingerprint() string {
	var b strings.Builder
	b.Grow(2*h.NumEdges() + 8*len(h.members)) // rough name-length guess to avoid regrowth
	// Iterating each edge by id yields a deterministic name order without
	// per-edge sorting or allocation (sorted-name order for New-built
	// hypergraphs, numeric id order for FromIDs). Every name is
	// length-prefixed, so fingerprints stay collision-free no matter which
	// bytes (braces, separators) the names themselves contain.
	writeName := func(id int) {
		name := h.nameOf(id)
		b.WriteString(strconv.Itoa(len(name)))
		b.WriteByte(':')
		b.WriteString(name)
	}
	for i := range h.NumEdges() {
		b.WriteByte('{')
		for _, id := range h.Members(i) {
			writeName(int(id))
		}
		b.WriteByte('}')
	}
	if iso := h.isolated(); !iso.IsEmpty() {
		b.WriteString("|iso:")
		iso.ForEach(writeName)
	}
	return b.String()
}
