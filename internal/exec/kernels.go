package exec

// The kernels are serial scans in ascending row order, so their output
// order is a function of the input alone:
//
//   - Semijoin keeps r's surviving rows in r's order.
//   - The probe table and the dense join's value-id chains link their rows
//     in descending order, so every chain lists its rows ascending.
//   - The fused join (joinProject, and Join, which keeps every attribute)
//     visits r's rows ascending and each row's chain matches ascending,
//     writes only the kept cells of each pair, and keeps the first
//     occurrence of every written row: its output is Project(Join(r, s),
//     keep) row for row, without the unprojected join, whichever probe
//     and dedup kernels run.
//   - Projection keeps the first equal row of every chain in row order.

import (
	"context"
	"fmt"
	"math"
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

// selectRows returns, ascending, the rows i of [0, n) with match(i),
// calling match on every row in ascending order.
func selectRows(ctx context.Context, n int, match func(i int) bool) ([]int32, error) {
	keep := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		if match(i) {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// gather materializes rows keep (ascending) of t's columns idx as a table
// over attrs.
func gather(t *Table, attrs []string, idx []int, keep []int32) *Table {
	out := &Table{dict: t.dict, attrs: attrs, cols: make([][]int32, len(idx)), rows: len(keep)}
	for c, tc := range idx {
		src, dst := t.cols[tc], make([]int32, len(keep))
		for k, r := range keep {
			dst[k] = src[r]
		}
		out.cols[c] = dst
	}
	return out
}

// sharedCols returns the positions of the attributes common to r and s, as
// parallel index slices (rIdx[k] in r matches sIdx[k] in s). Both attribute
// lists are sorted, so one merge pass suffices.
func sharedCols(r, s *Table) (rIdx, sIdx []int) {
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

// probeTable indexes the rows of a table by the hash of their key cells:
// a power-of-two array of chain heads, plus one next link and one stored
// hash per row. Rows are linked in descending order, so every chain lists
// its rows in ascending order — the invariant Join's emission order and
// distinctRows' first-occurrence test rest on. -1 ends a chain.
type probeTable struct {
	mask uint64
	head []int32  // bucket (hash & mask) -> first row of its chain
	next []int32  // row -> next row of its chain
	hash []uint64 // row -> key hash
}

// first returns the first row of the chain hash h falls in, or -1.
func (pt *probeTable) first(h uint64) int32 { return pt.head[h&pt.mask] }

// buildTable indexes the key cells (columns idx) of t.
func buildTable(ctx context.Context, t *Table, idx []int) (*probeTable, error) {
	n := t.rows
	hash := make([]uint64, n)
	for r := range hash {
		if err := checkEvery(ctx, r); err != nil {
			return nil, err
		}
		hash[r] = hashCells(t.cols, idx, r)
	}
	k := uint(bits.Len(uint(max(n-1, 0)))) // 2^k >= n buckets
	pt := &probeTable{mask: 1<<k - 1, head: make([]int32, 1<<k), next: make([]int32, n), hash: hash}
	for b := range pt.head {
		pt.head[b] = -1
	}
	for r := n - 1; r >= 0; r-- {
		b := hash[r] & pt.mask
		pt.next[r], pt.head[b] = pt.head[b], int32(r)
	}
	return pt, nil
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

// semijoin is Semijoin with the kernel chosen from the input: given stamp
// scratch, a pair sharing exactly one column takes the dense stamp filter;
// every other pair takes the hash kernel. kernel names the one chosen,
// "dense" or "hash".
func semijoin(ctx context.Context, r, s *Table, st *stamps) (out *Table, kernel string, err error) {
	if r.dict != s.dict {
		return nil, "", fmt.Errorf("exec: semijoin across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	kernel = "hash"
	var keep []int32
	switch {
	case len(rIdx) == 0:
		if s.rows > 0 {
			return r, kernel, nil
		}
		return &Table{dict: r.dict, attrs: r.attrs, cols: make([][]int32, len(r.cols))}, kernel, nil
	case len(rIdx) == 1 && st != nil:
		kernel = "dense"
		keep, err = denseFilter(ctx, r.cols[rIdx[0]], s.cols[sIdx[0]], r.dict.Len(), st)
	default:
		var pt *probeTable
		if pt, err = buildTable(ctx, s, sIdx); err != nil {
			return nil, "", err
		}
		keep, err = selectRows(ctx, r.rows, func(i int) bool {
			h := hashCells(r.cols, rIdx, i)
			for j := pt.first(h); j >= 0; j = pt.next[j] {
				if pt.hash[j] == h && equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j)) {
					return true
				}
			}
			return false
		})
	}
	if err != nil {
		return nil, "", err
	}
	if len(keep) == r.rows {
		return r, kernel, nil // nothing filtered: share the immutable input
	}
	return gather(r, r.attrs, allCols(len(r.cols)), keep), kernel, nil
}

// stamps is the scratch of the dense semijoin: one mark per dictionary
// value id, versioned by epoch so successive steps skip the clear. A
// scratch serves one reduction at a time.
type stamps struct {
	epoch uint32
	mark  []uint32
}

// next sizes the mark array for n value ids and returns a fresh epoch.
func (st *stamps) next(n int) uint32 {
	if len(st.mark) < n {
		st.mark = append(st.mark, make([]uint32, n-len(st.mark))...)
	}
	st.epoch++
	if st.epoch == 0 { // epoch wrapped: stale marks could alias, clear once
		clear(st.mark)
		st.epoch = 1
	}
	return st.epoch
}

// denseFilter is the single-shared-column semijoin as a stamp filter over
// the dictionary's dictLen value ids: mark every value of scol, keep the
// rows of rcol whose value is marked. O(|r|+|s|) with no hashing.
func denseFilter(ctx context.Context, rcol, scol []int32, dictLen int, st *stamps) ([]int32, error) {
	epoch := st.next(dictLen)
	mark := st.mark
	for i, v := range scol {
		if err := checkEvery(ctx, i); err != nil {
			return nil, err
		}
		mark[v] = epoch
	}
	return selectRows(ctx, len(rcol), func(i int) bool { return mark[rcol[i]] == epoch })
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

// unionAttrs returns the sorted union of two attribute lists.
func unionAttrs(a, b []string) []string {
	u := slices.Concat(a, b)
	slices.Sort(u)
	return slices.Compact(u)
}

// feed routes one input column into one output column.
type feed struct{ out, col int }

// joinKernels records the kernels one fused join ran.
type joinKernels struct {
	dense bool      // the probe went through value-id chain heads
	dedup dedupKind // how repeated output rows were dropped
}

// dedupKind is how a fused join drops repeated output rows.
type dedupKind uint8

const (
	dedupNone   dedupKind = iota // every attribute is kept: no repeats
	dedupSet                     // a rowSet
	dedupBitmap                  // a bitmap over the kept columns' span
)

// joinScratch is the scratch of the dense join kernels, reused from join
// to join: a chain head per dictionary value id (-1 between joins) and a
// next link per row of s, each s row's share of the bitmap key, and the
// bitmap. A scratch serves one evaluation at a time.
type joinScratch struct {
	head  []int32
	next  []int32
	share []uint64
	bits  []uint64
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
// table's do. release must run before the scratch serves another join.
func (js *joinScratch) chains(ctx context.Context, col []int32, dictLen int) error {
	for len(js.head) < dictLen {
		js.head = append(js.head, -1)
	}
	js.next = resize(js.next, len(col))
	for j := len(col) - 1; j >= 0; j-- {
		if err := checkEvery(ctx, j); err != nil {
			return err
		}
		v := col[j]
		js.next[j], js.head[v] = js.head[v], int32(j)
	}
	return nil
}

// release resets the heads col linked, in O(len(col)).
func (js *joinScratch) release(col []int32) {
	for _, v := range col {
		js.head[v] = -1
	}
}

// bitmapSpan returns dictLen^cols, the number of distinct rows of cols
// columns over dictLen value ids, and whether it is at most limit.
func bitmapSpan(dictLen, cols int, limit uint64) (uint64, bool) {
	span := uint64(1)
	for range cols {
		if dictLen > 0 && span > limit/uint64(dictLen) {
			return 0, false
		}
		span *= uint64(dictLen)
	}
	return span, span <= limit
}

// joinProject returns π_keep(r ⋈ s) and matches = |r ⋈ s|, the row pairs
// that join, without building r ⋈ s: each matching pair writes only its
// keep cells, and a row equal to one already written is dropped. The
// output is Project(Join(r, s), keep) row for row, because pairs are visited
// in Join's order and the first occurrence of a row is the one kept. When
// keep is every attribute of r ⋈ s nothing is deduped: distinct inputs
// join to distinct rows (two result rows coincide only if their generating
// pairs do). Cancellation is observed on r's rows and on matches, so a
// cross product that projects to a handful of rows still stops. keep may
// list attributes in any order and repeat them; one of neither table is an
// error. The two tables must share a Dict.
//
// The kernels are chosen from the input, as semijoin's are. Given scratch
// js (nil allows only the hash kernels):
//
//   - Probe: a pair sharing exactly one column finds s's matching rows
//     through chain heads indexed by value id (joinScratch.chains), with
//     no hashing or cell compare; any other pair probes s's probeTable.
//   - Dedup: when the kept columns' span, dict.Len()^len(keep) rows keyed
//     Σ cell·dict.Len()^pos, is at most 64·(|r|+|s|) bits, a bitmap over
//     it marks the rows written, one test-and-set per pair, and is never
//     larger than the row set it replaces. Otherwise a rowSet holds them.
func joinProject(ctx context.Context, r, s *Table, keep []string, js *joinScratch) (*Table, int, joinKernels, error) {
	var k joinKernels
	if r.dict != s.dict {
		return nil, 0, k, fmt.Errorf("exec: join across distinct dictionaries")
	}
	rIdx, sIdx := sharedCols(r, s)
	attrs := slices.Compact(slices.Sorted(slices.Values(keep)))
	// A shared attribute is fed from r; s feeds only its own.
	var rFeed, sFeed []feed
	for c, a := range attrs {
		if i := r.colIndex(a); i >= 0 {
			rFeed = append(rFeed, feed{c, i})
		} else if j := s.colIndex(a); j >= 0 {
			sFeed = append(sFeed, feed{c, j})
		} else {
			return nil, 0, k, fmt.Errorf("exec: projection on unknown attribute %q", a)
		}
	}
	dictLen := r.dict.Len()

	var next []int32
	var pt *probeTable
	var rKey []int32 // r's key column, on the dense probe
	if k.dense = js != nil && len(rIdx) == 1; k.dense {
		sKey := s.cols[sIdx[0]]
		defer js.release(sKey)
		if err := js.chains(ctx, sKey, dictLen); err != nil {
			return nil, 0, k, err
		}
		rKey, next = r.cols[rIdx[0]], js.next
	} else {
		var err error
		if pt, err = buildTable(ctx, s, sIdx); err != nil {
			return nil, 0, k, err
		}
		next = pt.next
	}

	var set rowSet
	var bits []uint64
	var weight []uint64 // out column -> dictLen^column, on the bitmap
	var sShare []uint64 // s row -> its cells' share of the bitmap key
	if len(attrs) < len(r.attrs)+len(s.attrs)-len(rIdx) {
		k.dedup = dedupSet
		if span, ok := bitmapSpan(dictLen, len(attrs), 64*uint64(r.rows+s.rows)); ok && js != nil {
			k.dedup = dedupBitmap
			js.bits = resize(js.bits, int((span+63)/64))
			clear(js.bits)
			bits = js.bits
			weight = make([]uint64, len(attrs))
			for c, w := 0, uint64(1); c < len(attrs); c, w = c+1, w*uint64(dictLen) {
				weight[c] = w
			}
			js.share = resize(js.share, s.rows)
			sShare = js.share
			for j := range sShare {
				sShare[j] = weighCells(0, s.cols, sFeed, weight, j)
			}
		} else {
			set = newRowSet(max(r.rows, s.rows))
		}
	}

	out := &Table{dict: r.dict, attrs: attrs, cols: make([][]int32, len(attrs))}
	matches := 0
	for i := 0; i < r.rows; i++ {
		if err := checkEvery(ctx, i); err != nil {
			return nil, 0, k, err
		}
		var h uint64
		var j int32
		if pt != nil {
			h = hashCells(r.cols, rIdx, i)
			j = pt.first(h)
		} else {
			j = js.head[rKey[i]]
		}
		// A written row's key folds r's kept cells once per r row, then
		// each match's s cells.
		var kr uint64
		switch k.dedup {
		case dedupBitmap:
			kr = weighCells(0, r.cols, rFeed, weight, i)
		case dedupSet:
			kr = foldCells(fnvOffset64, r.cols, rFeed, i)
		}
		for ; j >= 0; j = next[j] {
			if pt != nil && (pt.hash[j] != h || !equalCells(r.cols, rIdx, i, s.cols, sIdx, int(j))) {
				continue
			}
			if err := checkEvery(ctx, matches); err != nil {
				return nil, 0, k, err
			}
			matches++
			switch k.dedup {
			case dedupBitmap:
				key := kr + sShare[j]
				word, bit := &bits[key>>6], uint64(1)<<(key&63)
				if *word&bit != 0 {
					continue
				}
				*word |= bit
			case dedupSet:
				if !set.add(foldCells(kr, s.cols, sFeed, int(j)), func(row int) bool {
					return fedFrom(out, row, rFeed, r, i) && fedFrom(out, row, sFeed, s, int(j))
				}) {
					continue
				}
			}
			for _, f := range rFeed {
				out.cols[f.out] = append(out.cols[f.out], r.cols[f.col][i])
			}
			for _, f := range sFeed {
				out.cols[f.out] = append(out.cols[f.out], s.cols[f.col][j])
			}
			out.rows++
		}
	}
	return out, matches, k, nil
}

// weighCells adds to key the cells feeds draw from row of cols, each
// times its output column's weight.
func weighCells(key uint64, cols [][]int32, feeds []feed, weight []uint64, row int) uint64 {
	for _, f := range feeds {
		key += uint64(cols[f.col][row]) * weight[f.out]
	}
	return key
}

// foldCells folds the cells feeds draw from row of cols into hash h.
func foldCells(h uint64, cols [][]int32, feeds []feed, row int) uint64 {
	for _, f := range feeds {
		h = mixCell(h, cols[f.col][row])
	}
	return h
}

// fedFrom reports whether out's row k holds the cells feeds draw from t's
// row.
func fedFrom(out *Table, k int, feeds []feed, t *Table, row int) bool {
	for _, f := range feeds {
		if out.cols[f.out][k] != t.cols[f.col][row] {
			return false
		}
	}
	return true
}

// rowSet is joinProject's dedup set over the rows written so far: open
// addressing with linear probing, never more than three quarters full. A
// slot packs the low 32 bits of its row's hash, which fix the row's bucket
// at every size up to 2³² slots, above row+1; 0 is empty. A probe thus
// compares hashes without leaving the slot array, and runs of eight slots
// share a cache line, which is what lets the load run this high.
type rowSet struct {
	slots []uint64
	rows  int
}

// newRowSet returns a set of at least 2n slots, room for 1.5n rows before
// it first doubles. joinProject passes its larger input's size, which
// costs no more than the probe table and scan the kernel already pays for
// and fits a projection that keeps a key of either input. A narrow
// projection can write far fewer rows (on the eval-join workload 46k
// matches write 144), but its span mostly fits the bitmap, which then
// replaces the set. Starting small and doubling instead spent a tenth of a
// 10⁵-row chain evaluation in grow.
func newRowSet(n int) rowSet {
	return rowSet{slots: make([]uint64, 1<<bits.Len(uint(2*max(n, 1)-1)))}
}

// add registers the next row, with hash h, unless a row same accepts is
// already in the set; it reports whether the row was new.
func (rs *rowSet) add(h uint64, same func(k int) bool) bool {
	mask, tag := uint64(len(rs.slots)-1), h<<32
	b := h & mask
	for ; rs.slots[b] != 0; b = (b + 1) & mask {
		if v := rs.slots[b]; v&^math.MaxUint32 == tag && same(int(uint32(v))-1) {
			return false
		}
	}
	rs.rows++
	rs.slots[b] = tag | uint64(rs.rows)
	if 4*rs.rows > 3*len(rs.slots) {
		rs.grow()
	}
	return true
}

// grow doubles the slot array and moves every slot to its bucket there;
// the rows are distinct, so no cells are compared.
func (rs *rowSet) grow() {
	old := rs.slots
	rs.slots = make([]uint64, 2*len(old))
	mask := uint64(len(rs.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		b := v >> 32 & mask
		for rs.slots[b] != 0 {
			b = (b + 1) & mask
		}
		rs.slots[b] = v
	}
}

// Project returns π_attrs(t) with duplicate result rows removed, keeping
// first occurrences in row order. Unknown attributes are an error;
// duplicate names in attrs collapse.
func Project(ctx context.Context, t *Table, attrs []string) (*Table, error) {
	uniq := slices.Compact(slices.Sorted(slices.Values(attrs)))
	idx := make([]int, len(uniq))
	for i, a := range uniq {
		c := t.colIndex(a)
		if c < 0 {
			return nil, fmt.Errorf("exec: projection on unknown attribute %q", a)
		}
		idx[i] = c
	}
	if len(idx) == len(t.cols) {
		return t, nil // projection onto all attributes is the identity
	}
	keep, err := distinctRows(ctx, t, idx)
	if err != nil {
		return nil, err
	}
	return gather(t, uniq, idx, keep), nil
}

// distinctRows returns, ascending, the first row of every distinct tuple of
// t's columns idx: a row is kept when the first equal row of its chain is
// itself.
func distinctRows(ctx context.Context, t *Table, idx []int) ([]int32, error) {
	pt, err := buildTable(ctx, t, idx)
	if err != nil {
		return nil, err
	}
	return selectRows(ctx, t.rows, func(r int) bool {
		h := pt.hash[r]
		j := pt.first(h)
		// r itself is on the chain, so the walk ends.
		for pt.hash[j] != h || !equalCells(t.cols, idx, int(j), t.cols, idx, r) {
			j = pt.next[j]
		}
		return int(j) == r
	})
}
