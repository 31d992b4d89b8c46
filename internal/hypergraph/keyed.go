package hypergraph

import "math/bits"

// Keyed, collision-resistant identity digests. The streaming Fingerprint128
// is FNV-based: fast, but invertible, so a tenant who controls schema
// content can craft two different hypergraphs with equal digests and poison
// a shared memo (serve tenant B a verdict computed for tenant A's schema).
// This file provides the hardened variant the engine's WithKeyedDigest
// option switches on: SipHash-2-4 over the same injective token encoding,
// keyed by a secret seed held by the memo owner. SipHash is a PRF — without
// the key an adversary cannot predict digests, let alone collide them —
// and is cheap enough to stream over a schema at intern time (the price is
// an O(total edge size) walk per query whose hypergraph is not the
// resident session's own; see engine.WithKeyedDigest for the trade).

// sipKeys expands a 64-bit seed into the two SipHash key words via
// splitmix64, so callers configure a single secret value.
func sipKeys(seed uint64) (k0, k1 uint64) {
	return splitmix64(seed), splitmix64(seed + 0x9e3779b97f4a7c15)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sipState streams SipHash-2-4 byte by byte: a tokenWriter like fpState,
// so the keyed digest walks the identical injective encoding (encode) the
// FNV fingerprint folds.
type sipState struct {
	v0, v1, v2, v3 uint64
	buf            uint64 // little-endian byte accumulator
	nbuf           uint   // bytes buffered in buf
	length         uint64 // total bytes written
}

func newSipState(k0, k1 uint64) *sipState {
	return &sipState{
		v0: k0 ^ 0x736f6d6570736575,
		v1: k1 ^ 0x646f72616e646f6d,
		v2: k0 ^ 0x6c7967656e657261,
		v3: k1 ^ 0x7465646279746573,
	}
}

func (s *sipState) round() {
	s.v0 += s.v1
	s.v1 = bits.RotateLeft64(s.v1, 13)
	s.v1 ^= s.v0
	s.v0 = bits.RotateLeft64(s.v0, 32)
	s.v2 += s.v3
	s.v3 = bits.RotateLeft64(s.v3, 16)
	s.v3 ^= s.v2
	s.v0 += s.v3
	s.v3 = bits.RotateLeft64(s.v3, 21)
	s.v3 ^= s.v0
	s.v2 += s.v1
	s.v1 = bits.RotateLeft64(s.v1, 17)
	s.v1 ^= s.v2
	s.v2 = bits.RotateLeft64(s.v2, 32)
}

func (s *sipState) block(m uint64) {
	s.v3 ^= m
	s.round()
	s.round()
	s.v0 ^= m
}

func (s *sipState) writeByte(b byte) {
	s.buf |= uint64(b) << (8 * s.nbuf)
	s.nbuf++
	s.length++
	if s.nbuf == 8 {
		s.block(s.buf)
		s.buf, s.nbuf = 0, 0
	}
}

func (s *sipState) writeUvarint(v uint64) {
	for v >= 0x80 {
		s.writeByte(byte(v) | 0x80)
		v >>= 7
	}
	s.writeByte(byte(v))
}

func (s *sipState) writeString(x string) {
	s.writeUvarint(uint64(len(x)))
	for i := 0; i < len(x); i++ {
		s.writeByte(x[i])
	}
}

// sum finalizes SipHash-2-4: the last block carries the length in its top
// byte, then the 0xff-marked four finalization rounds run.
func (s *sipState) sum() uint64 {
	last := s.buf | (s.length << 56)
	s.block(last)
	s.v2 ^= 0xff
	s.round()
	s.round()
	s.round()
	s.round()
	return s.v0 ^ s.v1 ^ s.v2 ^ s.v3
}

// KeyedDigest returns the seeded SipHash-2-4 digest of h's injective
// encoding — the same token stream Fingerprint128 folds (mode byte, edge
// count, per-edge tokens, isolated-node section), so equal keyed digests
// under one seed imply equal content with PRF-grade confidence. Unlike the
// streaming fingerprint it is not cached on the hypergraph (it depends on
// the caller's seed), so each call walks the whole encoding.
func KeyedDigest(h *Hypergraph, seed uint64) uint64 {
	s := newSipState(sipKeys(seed))
	h.encode(s)
	return s.sum()
}

// KeyedEdgeDigest is the keyed sibling of EdgeDigestNames: a 128-bit
// per-edge digest (two independently keyed SipHash-2-4 passes) for the
// dynamic layer's commutative component fold when the attached engine runs
// in WithKeyedDigest mode. Summing PRF outputs keeps component identities
// unpredictable to tenants who do not hold the seed.
func KeyedEdgeDigest(seed uint64, names []string) Fingerprint128 {
	k0, k1 := sipKeys(seed)
	write := func(s *sipState) {
		s.writeByte(modeEdgeUnit)
		s.writeUvarint(uint64(len(names)))
		for _, n := range names {
			s.writeString(n)
		}
	}
	hi := newSipState(k0, k1)
	write(hi)
	lo := newSipState(k0^0xa5a5a5a5a5a5a5a5, k1^0x5a5a5a5a5a5a5a5a)
	write(lo)
	return Fingerprint128{Hi: hi.sum(), Lo: lo.sum()}
}
