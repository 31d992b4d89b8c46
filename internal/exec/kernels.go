package exec

// The kernels are serial scans in ascending row order, so their output
// order is a function of the input alone, whatever the Dict's hash seed:
//
//   - Semijoin keeps r's surviving rows in r's order.
//   - The probe table and the dense kernels' value-id chains link their
//     rows in descending order, so every chain lists its rows ascending.
//   - The fused join (joinProject; Join keeps every attribute, and Project
//     is the join with the one-row nullary table) visits r's rows
//     ascending and each row's chain matches ascending, and writes only
//     the kept cells of each pair through one rowSet, which keeps the
//     first occurrence of every written row: its output is
//     Project(Join(r, s), keep) row for row, without the unprojected join,
//     whichever probe and dedup kernels run.

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
)

// cancelStride is how many rows a kernel processes between context checks.
// Coarse enough that the check never shows up in profiles, fine enough that
// cancellation latency is bounded by ~4096 rows of work.
const cancelStride = 4096

// checkEvery polls ctx.Err() when row is a multiple of cancelStride.
func checkEvery(ctx context.Context, row int) error {
	if row&(cancelStride-1) == 0 {
		return ctx.Err()
	}
	return nil
}

// gather materializes rows keep (ascending) of t, its columns cut from
// sc's slab (see evalScratch.ints).
func gather(t *Table, keep []int32, sc *evalScratch) *Table {
	n := len(keep)
	out := &Table{dict: t.dict, attrs: t.attrs, cols: make([][]int32, len(t.cols)), rows: n}
	back := sc.ints(n * len(t.cols))
	for c, src := range t.cols {
		dst := back[c*n : (c+1)*n : (c+1)*n]
		for k, r := range keep {
			dst[k] = src[r]
		}
		out.cols[c] = dst
	}
	return out
}

// sharedCols returns the positions of the attributes common to r and s, as
// parallel index slices (rIdx[k] in r matches sIdx[k] in s), both cut from
// one allocation. Both attribute lists are sorted, so one merge pass
// suffices.
func sharedCols(r, s *Table) (rIdx, sIdx []int) {
	m := min(len(r.attrs), len(s.attrs))
	idx := make([]int, 2*m)
	rIdx, sIdx = idx[:0:m], idx[m:m]
	i, j := 0, 0
	for i < len(r.attrs) && j < len(s.attrs) {
		switch {
		case r.attrs[i] == s.attrs[j]:
			rIdx = append(rIdx, i)
			sIdx = append(sIdx, j)
			i++
			j++
		case r.attrs[i] < s.attrs[j]:
			i++
		default:
			j++
		}
	}
	return rIdx, sIdx
}

// probeTable indexes the rows of a table by the hash of their key cells
// (hashCells): a power-of-two array of chain heads picked by the hash's top
// bits, plus one next link and one stored hash per row. Rows are linked in
// descending order, so every chain lists its rows in ascending order — the
// invariant Join's emission order rests on. -1 ends a chain.
type probeTable struct {
	shift uint     // 64 - log2(len(head))
	head  []int32  // bucket (hash >> shift) -> first row of its chain
	next  []int32  // row -> next row of its chain
	hash  []uint64 // row -> key hash
	cols  [][]int32
	idx   []int // key columns
}

// first returns the first row of the chain hash h falls in, or -1.
func (pt *probeTable) first(h uint64) int32 { return pt.head[h>>pt.shift] }

// find returns the first row from j on along its chain whose key hash is h
// and whose key cells equal row's cells idx of cols, or -1.
func (pt *probeTable) find(j int32, h uint64, cols [][]int32, idx []int, row int) int32 {
	for ; j >= 0; j = pt.next[j] {
		if pt.hash[j] == h && equalCells(pt.cols, pt.idx, int(j), cols, idx, row) {
			return j
		}
	}
	return -1
}

// buildTable indexes the key cells (columns idx) of t.
func buildTable(ctx context.Context, t *Table, idx []int) (*probeTable, error) {
	n := t.rows
	hash := make([]uint64, n)
	for r := range hash {
		if err := checkEvery(ctx, r); err != nil {
			return nil, err
		}
		hash[r] = hashCells(t.dict.mul, t.cols, idx, r)
	}
	k := uint(bits.Len(uint(max(n-1, 0)))) // 2^k >= n buckets
	pt := &probeTable{shift: 64 - k, head: make([]int32, 1<<k), next: make([]int32, n), hash: hash, cols: t.cols, idx: idx}
	for b := range pt.head {
		pt.head[b] = -1
	}
	for r := n - 1; r >= 0; r-- {
		b := hash[r] >> pt.shift
		pt.next[r], pt.head[b] = pt.head[b], int32(r)
	}
	return pt, nil
}

// joinKernels records the kernels one semijoin or fused join runs.
type joinKernels struct {
	dense bool      // the probe goes through value-id chain heads
	dedup dedupKind // how repeated output rows are dropped
}

// dedupKind is how a fused join drops repeated output rows.
type dedupKind uint8

const (
	dedupNone   dedupKind = iota // every attribute is kept: no repeats
	dedupSet                     // the rowSet's slots
	dedupBitmap                  // a bitmap over the kept columns' span
)

// chooseKernels picks the kernels of every semijoin and fused join: of r
// against s, sharing shared columns and keeping keep. Given scratch sc
// (nil allows only the hash kernels):
//
//   - Probe: a pair sharing exactly one column finds s's matching rows
//     through chain heads indexed by value id (evalScratch.chains), with no
//     hashing or cell compare; any other pair probes s's probeTable.
//   - Dedup: an output keeping every attribute of r ⋈ s has no repeats,
//     since distinct inputs join to distinct rows. Otherwise, when the
//     kept columns' span, dict.Len()^keep rows keyed Σ cell·dict.Len()^pos,
//     is at most 64·(|r|+|s|) bits, a bitmap over it marks the rows
//     written, one test-and-set per pair, and is never larger than the
//     row set it replaces; else the rowSet's slots hold them.
func chooseKernels(r, s *Table, shared, keep int, sc *evalScratch) joinKernels {
	k := joinKernels{dense: sc != nil && shared == 1}
	if keep < len(r.attrs)+len(s.attrs)-shared {
		k.dedup = dedupSet
		if sc != nil && spanFits(r.dict.Len(), keep, 64*uint64(r.rows+s.rows)) {
			k.dedup = dedupBitmap
		}
	}
	return k
}

// spanFits reports whether dictLen^cols, the number of distinct rows of
// cols columns over dictLen value ids, is at most limit.
func spanFits(dictLen, cols int, limit uint64) bool {
	span := uint64(1)
	for range cols {
		if dictLen > 0 && span > limit/uint64(dictLen) {
			return false
		}
		span *= uint64(dictLen)
	}
	return span <= limit
}

// evalScratch is the scratch of a Dict's loads and evaluations (see
// Dict.take): a chain head per dictionary value id (-1 between kernels)
// and a next link per row of s, the rows a semijoin keeps, each s row's
// share of the bitmap key, the bitmap, the row set the loaders and the
// fused joins write through, and the slab their output columns are cut
// from. A scratch serves one load or evaluation at a time, and every
// kernel leaves it ready for the next, cancellation included: the heads
// read -1 again, and the rest is overwritten before it is read.
type evalScratch struct {
	head  []int32
	next  []int32
	keep  []int32
	share []uint64
	bits  []uint64
	rows  rowSet
	slab  []int32 // cut so far: [0, len)
	cut   int     // cells asked of ints since the last rewind
}

// maxScratch bounds the bytes a Dict keeps for reuse in its scratch (see
// Dict.give), and in its slot table and value list (see Dict.Reset).
// Eval-join's requests, 2000–3000 rows in each of eight tables, fit well
// inside it.
const maxScratch = 4 << 20

// bytes returns the bytes sc keeps for reuse.
func (sc *evalScratch) bytes() int {
	return 4*(cap(sc.head)+cap(sc.next)+cap(sc.keep)+cap(sc.rows.cells)+cap(sc.slab)) +
		8*(cap(sc.share)+cap(sc.bits)+cap(sc.rows.slots))
}

// ints returns n cells for a table's columns, cut from sc's slab, or
// allocated alone when the slab is full or sc is nil. The slab is never
// cut twice between rewinds, so a table's columns stay its own until then.
func (sc *evalScratch) ints(n int) []int32 {
	if sc == nil {
		return make([]int32, n)
	}
	sc.cut += n
	lo := len(sc.slab)
	if lo+n > cap(sc.slab) {
		return make([]int32, n)
	}
	sc.slab = sc.slab[:lo+n]
	return sc.slab[lo : lo+n : lo+n]
}

// rewind makes the whole slab free to cut again (see Dict.Reset), first
// growing it to the cells cut since the last rewind, up to half of
// maxScratch: a server that reuses the Dict for requests of one shape
// allocates their columns once.
func (sc *evalScratch) rewind() {
	if sc.cut > cap(sc.slab) && 4*sc.cut <= maxScratch/2 {
		sc.slab = make([]int32, 0, sc.cut)
	}
	sc.slab, sc.cut = sc.slab[:0], 0
}

// resize returns buf at length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// chains links the rows of col by value: head[v] is the first row holding
// v, next[j] the row after j with j's value, -1 ending both. Rows are
// linked in descending order, so every chain runs ascending, as the probe
// table's do. Without link only the heads are set, to some row holding
// their value, which is all a semijoin asks. release must run before the
// scratch serves another kernel.
func (sc *evalScratch) chains(ctx context.Context, col []int32, dictLen int, link bool) error {
	if len(sc.head) < dictLen { // every head is -1 between kernels
		sc.head = make([]int32, dictLen)
		for v := range sc.head {
			sc.head[v] = -1
		}
	}
	if link {
		sc.next = resize(sc.next, len(col))
	}
	for j := len(col) - 1; j >= 0; j-- {
		if err := checkEvery(ctx, j); err != nil {
			return err
		}
		if v := col[j]; link {
			sc.next[j], sc.head[v] = sc.head[v], int32(j)
		} else {
			sc.head[v] = int32(j)
		}
	}
	return nil
}

// release resets the heads col linked, in O(len(col)).
func (sc *evalScratch) release(col []int32) {
	for _, v := range col {
		sc.head[v] = -1
	}
}

// Semijoin returns r ⋉ s: the rows of r that agree with at least one row of
// s on all shared attributes, by hash probe. With no shared attributes it
// returns r when s is nonempty and the empty table otherwise — the
// internal/relation convention the differential suite pins. An unfiltered
// r is returned as is. The two tables must share a Dict.
func Semijoin(ctx context.Context, r, s *Table) (*Table, error) {
	out, _, err := semijoin(ctx, r, s, nil)
	return out, err
}

// semijoin is Semijoin with the probe chosen by chooseKernels: given
// scratch, a pair sharing exactly one column marks s's values in the
// value-id heads and keeps the rows of r whose value is marked, in
// O(|r|+|s|) with no hashing. kernel names the probe, "dense" or "hash".
func semijoin(ctx context.Context, r, s *Table, sc *evalScratch) (out *Table, kernel string, err error) {
	if r.dict != s.dict {
		return nil, "", fmt.Errorf("exec: semijoin across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	if len(rIdx) == 0 {
		if s.rows > 0 {
			return r, "hash", nil
		}
		return &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols))}, "hash", nil
	}
	// A semijoin's output rows are r's own, so it never dedups.
	k := chooseKernels(r, s, len(rIdx), len(r.attrs)+len(s.attrs)-len(rIdx), sc)
	var keep []int32
	if sc != nil {
		sc.keep = resize(sc.keep, r.rows)[:0]
		keep = sc.keep
	} else {
		keep = make([]int32, 0, r.rows)
	}
	if k.dense {
		kernel = "dense"
		sKey := s.cols[sIdx[0]]
		defer sc.release(sKey)
		if err := sc.chains(ctx, sKey, r.dict.Len(), false); err != nil {
			return nil, "", err
		}
		for i, v := range r.cols[rIdx[0]] {
			if err := checkEvery(ctx, i); err != nil {
				return nil, "", err
			}
			if sc.head[v] >= 0 {
				keep = append(keep, int32(i))
			}
		}
	} else {
		kernel = "hash"
		pt, err := buildTable(ctx, s, sIdx)
		if err != nil {
			return nil, "", err
		}
		for i := 0; i < r.rows; i++ {
			if err := checkEvery(ctx, i); err != nil {
				return nil, "", err
			}
			h := hashCells(r.dict.mul, r.cols, rIdx, i)
			if pt.find(pt.first(h), h, r.cols, rIdx, i) >= 0 {
				keep = append(keep, int32(i))
			}
		}
	}
	if len(keep) == r.rows {
		return r, kernel, nil // nothing filtered: share the immutable input
	}
	return gather(r, keep, sc), kernel, nil
}

// Join returns the natural join r ⋈ s over the sorted union of the
// attribute lists; with no shared attributes it is the cross product. It is
// joinProject keeping every attribute, so it dedups nothing, and like
// public Semijoin it runs the hash kernel. The two tables must share a
// Dict.
func Join(ctx context.Context, r, s *Table) (*Table, error) {
	out, _, _, err := joinProject(ctx, r, s, unionAttrs(r.attrs, s.attrs), nil)
	return out, err
}

// unionAttrs returns the sorted union of attribute lists, in one
// allocation.
func unionAttrs(lists ...[]string) []string {
	u := slices.Concat(lists...)
	slices.Sort(u)
	return slices.Compact(u)
}

// Project returns π_attrs(t) with duplicate result rows removed, keeping
// first occurrences in row order. Unknown attributes are an error;
// duplicate names in attrs collapse. Like public Semijoin it runs the hash
// kernels.
func Project(ctx context.Context, t *Table, attrs []string) (*Table, error) {
	out, _, err := project(ctx, t, attrs, nil)
	return out, err
}

// project is Project with the kernels chosen by chooseKernels: the fused
// join of t with the one-row nullary table, which matches every row of t
// once, and the kernels it ran. Projection onto every attribute is the
// identity and returns t.
func project(ctx context.Context, t *Table, attrs []string, sc *evalScratch) (*Table, joinKernels, error) {
	if slices.Equal(unionAttrs(attrs), t.attrs) {
		return t, joinKernels{}, nil
	}
	out, _, k, err := joinProject(ctx, t, unitTable(t.dict), attrs, sc)
	return out, k, err
}

// unitTable returns the one-row nullary table, the identity of the join.
func unitTable(dict *Dict) *Table {
	return &Table{dict: dict, attrs: []string{}, cols: [][]int32{}, rows: 1}
}

// feed routes one input column into one output column.
type feed struct{ out, col int }

// joinProject returns π_keep(r ⋈ s) and matches = |r ⋈ s|, the row pairs
// that join, without building r ⋈ s: each matching pair writes only its
// keep cells through a rowSet, which drops a row equal to one already
// written. The output is Project(Join(r, s), keep) row for row, because
// pairs are visited in Join's order and the first occurrence of a row is
// the one kept. Cancellation is observed on r's rows and on matches, so a
// cross product that projects to a handful of rows still stops. keep may
// list attributes in any order and repeat them; one of neither table is an
// error. The two tables must share a Dict. Given scratch sc, the kernels
// are chosen by chooseKernels; nil allows only the hash kernels.
func joinProject(ctx context.Context, r, s *Table, keep []string, sc *evalScratch) (*Table, int, joinKernels, error) {
	if r.dict != s.dict {
		return nil, 0, joinKernels{}, fmt.Errorf("exec: join across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	attrs := unionAttrs(keep)
	// A shared attribute is fed from r; s feeds only its own.
	feeds := make([]feed, 2*len(attrs))
	rFeed, sFeed := feeds[:0:len(attrs)], feeds[len(attrs):len(attrs)]
	for c, a := range attrs {
		if i := r.colIndex(a); i >= 0 {
			rFeed = append(rFeed, feed{c, i})
		} else if j := s.colIndex(a); j >= 0 {
			sFeed = append(sFeed, feed{c, j})
		} else {
			return nil, 0, joinKernels{}, fmt.Errorf("exec: projection on unknown attribute %q", a)
		}
	}
	k := chooseKernels(r, s, len(rIdx), len(attrs), sc)
	dictLen := r.dict.Len()

	var next []int32
	var pt *probeTable
	var rKey []int32 // r's key column, on the dense probe
	if k.dense {
		sKey := s.cols[sIdx[0]]
		defer sc.release(sKey)
		if err := sc.chains(ctx, sKey, dictLen, true); err != nil {
			return nil, 0, k, err
		}
		rKey, next = r.cols[rIdx[0]], sc.next
	} else {
		var err error
		if pt, err = buildTable(ctx, s, sIdx); err != nil {
			return nil, 0, k, err
		}
		next = pt.next
	}

	set := new(rowSet)
	if sc != nil {
		set = &sc.rows
	}
	set.reset(r.dict.mul, len(attrs), max(r.rows, s.rows), k.dedup == dedupSet)
	var bitmap []uint64
	var weight []uint64 // out column -> dictLen^column, on the bitmap
	var sShare []uint64 // s row -> its cells' share of the bitmap key
	if k.dedup == dedupBitmap {
		weight = make([]uint64, len(attrs))
		span := uint64(1)
		for c := range weight {
			weight[c], span = span, span*uint64(dictLen)
		}
		sc.bits = resize(sc.bits, int((span+63)/64))
		clear(sc.bits)
		bitmap = sc.bits
		sc.share = resize(sc.share, s.rows)
		sShare = sc.share
		for j := range sShare {
			sShare[j] = weighCells(s.cols, sFeed, weight, j)
		}
	}

	matches := 0
	for i := 0; i < r.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, 0, k, err
		}
		var h uint64
		var j int32
		if pt != nil {
			h = hashCells(r.dict.mul, r.cols, rIdx, i)
			j = pt.find(pt.first(h), h, r.cols, rIdx, i)
		} else {
			j = sc.head[rKey[i]]
		}
		// A written row's bitmap key weighs r's kept cells once per r row,
		// then adds each match's s share.
		var kr uint64
		if bitmap != nil {
			kr = weighCells(r.cols, rFeed, weight, i)
		}
		for j >= 0 {
			if err := checkEvery(ctx, matches); err != nil {
				return nil, 0, k, err
			}
			matches++
			fresh := true
			if bitmap != nil {
				key := kr + sShare[j]
				word, bit := &bitmap[key>>6], uint64(1)<<(key&63)
				fresh = *word&bit == 0
				*word |= bit
			}
			if fresh {
				row := set.next()
				for _, f := range rFeed {
					row[f.out] = r.cols[f.col][i]
				}
				for _, f := range sFeed {
					row[f.out] = s.cols[f.col][j]
				}
				set.add(1)
			}
			if pt != nil {
				j = pt.find(next[j], h, r.cols, rIdx, i)
			} else {
				j = next[j]
			}
		}
	}
	out := &Table{dict: r.dict, attrs: attrs, cols: make([][]int32, len(attrs)), rows: set.rows}
	set.columns(out.cols, sc.ints(set.rows*len(attrs)))
	return out, matches, k, nil
}

// weighCells sums the cells feeds draw from row of cols, each times its
// output column's weight.
func weighCells(cols [][]int32, feeds []feed, weight []uint64, row int) uint64 {
	var key uint64
	for _, f := range feeds {
		key += uint64(cols[f.col][row]) * weight[f.out]
	}
	return key
}
