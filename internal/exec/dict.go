// Package exec is the columnar query-execution subsystem: it evaluates the
// semijoin programs and acyclic joins the rest of the repository only
// derives. Where internal/relation is a string-keyed paper-scale algebra,
// exec stores relations as dictionary-encoded int32 columns and runs
// hash-based kernels over value ids, which is what lets full-reducer
// programs and Yannakakis evaluation stream over 10⁵–10⁶-row instances.
//
// The layering mirrors the paper's pipeline:
//
//   - Table: a set-semantics relation as per-attribute int32 columns over a
//     shared value Dict. Four loaders fill it: FromRelation (and
//     FromRelations for a whole database) from internal/relation, FromRows
//     from string rows, LoadCSV from CSV, and ScanJSONRows from JSON rows
//     straight from the bytes of a request body, in place. The last three
//     share one tail: each table's cells go row-major into a scratch the
//     Dict owns, the package's one row set (rowSet) drops repeated rows
//     there, and the columns are cut once, at the distinct-row count, from
//     the scratch's slab.
//   - Dict: one open-addressing table of value ids, probed once per cell.
//     A value of at most 7 bytes is its own exact key, so interning it
//     compares one word and never hashes. Its random multiplier also
//     seeds the one row hash of the probe table and the row set.
//   - Semijoin / Join / Project: serial kernels on column ids, each
//     observing context cancellation every ~4096 rows. Project is the join
//     with the one-row nullary table, and every join writes its rows
//     through a rowSet. The public ones are hash kernels; Reduce and Eval
//     hand every kernel one scratch when the database's dictionary fits
//     (denseFits), and one chooser (chooseKernels) then picks each
//     kernel's dense, value-id-indexed probe and bitmap dedup where they
//     apply.
//   - Database: a schema (hypergraph) bound to one Table per edge, all
//     sharing one Dict so cross-table comparisons stay id-equality.
//   - Reduce: runs a join tree's full reducer as a streaming two-pass
//     reduction, step by step in program order, with per-step statistics
//     (rows in/out, elapsed). A step whose pair shares exactly one column
//     marks the source's values in value-id heads, and the others take
//     the hash kernel.
//   - Eval: full Yannakakis evaluation — reduce, then join bottom-up along
//     the join tree with projection pushdown, output-sensitive, on the
//     reduction's scratch. Each projection and join probes value-id chain
//     heads when the pair shares exactly one column, and dedups its
//     projected rows in a bitmap when their span fits, the hash probe and
//     the row set's slots otherwise.
//
// Reduce and Eval are the only drivers, and both run serially: a query's
// output, row order included, is a function of its input.
//
// The Dict is the arena of everything loaded into it. It owns one scratch
// (evalScratch), which its row loaders, Reduce and Eval take for their
// duration and hand back: the row set, the dense kernels' value-id heads,
// chains and bitmap, and a slab from which every loaded table's columns,
// every semijoin output and every join output are cut. Without Reset the
// slab only grows, so every table stays valid for as long as it is
// reachable. Dict.Reset empties the Dict for the next request, with a
// fresh multiplier and seed, and rewinds the slab, sized by then to what
// the request before it cut: after it, no table loaded into the Dict or
// derived from one may be read again. A server that resets one Dict per
// request therefore cuts a request's columns from memory it already has.
// A scratch that grew past maxScratch bytes is not kept, and one whose
// holder panicked is never handed back.
//
// The reduce→eval contract: Reduce makes every object globally consistent
// (for acyclic schemas, by Bernstein–Goodman), after which Eval joins only
// the canonical connection of the query attributes, and every intermediate
// join only grows toward tuples that contribute to the output, so
// evaluation cost is proportional to input plus output instead of the
// largest intermediate. Eval performs the reduction itself; callers
// that reduce separately (Analysis.Reduce) can inspect the per-step stats
// and reuse the reduced database for many evaluations.
//
// Correctness is pinned differentially: exec reduction and evaluation are
// compared against naive internal/relation Semijoin/Join composition over
// randomized databases on the gen corpus (see diff_test.go).
package exec

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"strings"
	"sync/atomic"
)

// Dict interns attribute values to dense int32 ids. Every Table of a
// Database shares one Dict, so equality of values across tables is equality
// of ids — the property the kernels rely on. The zero value is not
// usable; construct with NewDict. A Dict is not safe for concurrent
// mutation; load tables from one goroutine (kernels never intern).
//
// The ids live in one open-addressing table probed linearly, never more
// than three quarters full. A slot holds a value's 64-bit key and its id.
// A value of at most 7 bytes is its own exact key: its bytes packed
// little-endian, with len+1 in the top byte, so a probe compares one word
// and never the string. A longer value's key is its maphash under the
// Dict's seed with the top bit set, which no short key has, and a key
// match is confirmed by comparing the strings. A key's bucket is the top
// bits of key*mul for the Dict's random odd mul, so a hostile body cannot
// aim values at one probe run. The kernels' one row hash (hashCells) is
// seeded with the same mul, for the same reason.
//
// A Dict is also the arena of the tables loaded into it (see the package
// doc): its row loaders (FromRows, LoadCSV, ScanJSONRows), Reduce and Eval
// take its one evalScratch for their duration and hand it back (take,
// give). While one holds it, a concurrent one runs on a fresh scratch, so
// evaluations over one Dict may still run concurrently.
type Dict struct {
	vals    []string
	slots   []dictSlot // power-of-two length; key 0 is empty
	shift   uint       // 64 - log2(len(slots))
	mul     uint64     // odd
	seed    maphash.Seed
	scratch atomic.Pointer[evalScratch] // nil while held, or once dropped
}

type dictSlot struct {
	key uint64
	id  int32
}

// longKey marks the key of a value of 8 bytes or more.
const longKey = 1 << 63

// minSlots is the slot count of an empty Dict.
const minSlots = 1 << 6

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return newDict(rand.Uint64(), maphash.MakeSeed())
}

// newDict returns an empty dictionary probing with multiplier mul|1 and
// hashing long values under seed.
func newDict(mul uint64, seed maphash.Seed) *Dict {
	d := new(Dict)
	d.empty(mul, seed)
	return d
}

// Reset empties d for reuse, as NewDict would return it: it forgets every
// value and draws a new random multiplier and seed, so what one body taught
// d about its hashes says nothing about the next. It keeps d's slot table
// and value list, unless they outgrew maxScratch bytes, and its scratch,
// whose slab it rewinds. Every table loaded into d, and every table Reduce
// or Eval derived from those, must never be read after Reset: its columns
// may be overwritten by the next load. Reset must not run concurrently with
// any other use of d.
func (d *Dict) Reset() {
	d.empty(rand.Uint64(), maphash.MakeSeed())
	if sc := d.scratch.Load(); sc != nil {
		sc.rewind()
	}
}

// empty forgets every value and probes with multiplier mul|1 and seed from
// now on, reusing the slot table and value list within maxScratch bytes.
func (d *Dict) empty(mul uint64, seed maphash.Seed) {
	clear(d.vals) // the list must not pin the old values
	d.vals = d.vals[:0]
	if 16*(len(d.slots)+cap(d.vals)) > maxScratch {
		d.slots, d.vals = nil, nil
	}
	if d.slots == nil {
		d.slots = make([]dictSlot, minSlots)
	}
	clear(d.slots)
	d.shift = uint(65 - bits.Len(uint(len(d.slots))))
	d.mul, d.seed = mul|1, seed
}

// take returns d's scratch for one load or evaluation, or a fresh one
// while another holds it (or after it was dropped).
func (d *Dict) take() *evalScratch {
	if sc := d.scratch.Swap(nil); sc != nil {
		return sc
	}
	return new(evalScratch)
}

// give hands sc, taken from d, back for the next load or evaluation, unless
// sc is nil or grew past maxScratch bytes, so a Dict that once served a
// huge table does not pin its scratch for life. A caller that panics never
// gets here, so a scratch a kernel left half-written is dropped.
func (d *Dict) give(sc *evalScratch) {
	if sc != nil && sc.bytes() <= maxScratch {
		d.scratch.Store(sc)
	}
}

// Intern returns the id of s, assigning the next free id on first sight.
func (d *Dict) Intern(s string) int32 {
	k := d.stringKey(s)
	i, ok := probe(d, k, s)
	if !ok {
		return d.add(i, k, s)
	}
	return d.slots[i].id
}

// internBytes is Intern for a value still in its source buffer: a hit
// costs one probe and no allocation, and a first sight copies b, so the
// dictionary never pins the buffer.
func (d *Dict) internBytes(b []byte) int32 {
	k := d.bytesKey(b)
	i, ok := probe(d, k, b)
	if !ok {
		return d.add(i, k, string(b))
	}
	return d.slots[i].id
}

// internClone is Intern for a substring of a larger string, such as a
// csv.Reader field: a first sight clones s, so the dictionary never pins
// the rest of its backing string.
func (d *Dict) internClone(s string) int32 {
	k := d.stringKey(s)
	i, ok := probe(d, k, s)
	if !ok {
		return d.add(i, k, strings.Clone(s))
	}
	return d.slots[i].id
}

// Lookup returns the id of s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	i, ok := probe(d, d.stringKey(s), s)
	return d.slots[i].id, ok
}

// Value returns the string for a value id. It panics on an invalid id.
func (d *Dict) Value(id int32) string { return d.vals[id] }

// Len returns the number of distinct values interned.
func (d *Dict) Len() int { return len(d.vals) }

// probe returns the slot of v, whose key is k, and whether v is there; when
// it is not, the slot is the empty one that ends v's probe run. It is the
// one probe loop of every intern and lookup.
func probe[T string | []byte](d *Dict, k uint64, v T) (uint64, bool) {
	mask := uint64(len(d.slots) - 1)
	for i := k * d.mul >> d.shift; ; i = (i + 1) & mask {
		switch sk := d.slots[i].key; {
		case sk == 0:
			return i, false
		case sk == k && (k&longKey == 0 || d.vals[d.slots[i].id] == string(v)):
			return i, true
		}
	}
}

// add assigns s, whose key is k, the next id in the empty slot i.
func (d *Dict) add(i, k uint64, s string) int32 {
	id := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.slots[i] = dictSlot{key: k, id: id}
	if 4*len(d.vals) > 3*len(d.slots) {
		d.grow()
	}
	return id
}

// grow doubles the slot array and moves every slot to its bucket there.
// Keys are stored, so no value is hashed again.
func (d *Dict) grow() {
	old := d.slots
	d.slots = make([]dictSlot, 2*len(old))
	d.shift--
	mask := uint64(len(d.slots) - 1)
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		i := sl.key * d.mul >> d.shift
		for d.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = sl
	}
}

// shortKey packs w, the bytes of a value of length n <= 7 little-endian
// with garbage above them, into the value's exact key.
func shortKey(w uint64, n int) uint64 {
	return w&(1<<(8*n)-1) | uint64(n+1)<<56
}

// bytesKey returns b's key. A short b is read as one 8-byte word when its
// capacity allows, as it does for every cell but one ending at the very
// end of its buffer.
func (d *Dict) bytesKey(b []byte) uint64 {
	switch n := len(b); {
	case n > 7:
		return maphash.Bytes(d.seed, b) | longKey
	case cap(b) >= 8:
		return shortKey(binary.LittleEndian.Uint64(b[:8]), n)
	default:
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		return shortKey(w, n)
	}
}

// stringKey returns s's key, the key bytesKey gives for s's bytes.
func (d *Dict) stringKey(s string) uint64 {
	if len(s) > 7 {
		return maphash.String(d.seed, s) | longKey
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return shortKey(w, len(s))
}
