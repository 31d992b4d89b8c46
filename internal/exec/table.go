package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/relation"
)

// Table is a set-semantics relation stored columnar: one int32 column per
// attribute, values dictionary-encoded through a shared Dict. Attribute
// order is normalized to sorted order at construction and rows are
// deduplicated, matching internal/relation, so the two layers agree on what
// a relation is. Tables are immutable: kernels return new tables.
type Table struct {
	dict  *Dict
	attrs []string // sorted
	cols  [][]int32
	rows  int
}

// NewTable returns an empty table over the given attributes (sorted,
// deduplicated names are an error, as are empty names).
func NewTable(dict *Dict, attrs []string) (*Table, error) {
	sorted, err := checkAttrs(attrs)
	if err != nil {
		return nil, err
	}
	return &Table{dict: dict, attrs: sorted, cols: make([][]int32, len(sorted))}, nil
}

func checkAttrs(attrs []string) ([]string, error) {
	sorted := append([]string{}, attrs...)
	sort.Strings(sorted)
	for i, a := range sorted {
		if a == "" {
			return nil, fmt.Errorf("exec: empty attribute name")
		}
		if i > 0 && a == sorted[i-1] {
			return nil, fmt.Errorf("exec: duplicate attribute %q", a)
		}
	}
	return sorted, nil
}

// FromRows builds a table from string rows given in the order of attrs
// (any order; columns are permuted into sorted attribute order). Rows are
// interned into dict and deduplicated.
func FromRows(dict *Dict, attrs []string, rows [][]string) (*Table, error) {
	t, err := NewTable(dict, attrs)
	if err != nil {
		return nil, err
	}
	perm := sortedPerm(t.attrs, attrs)
	sc := dict.take()
	cells := sc.rows.cells[:0]
	for _, row := range rows {
		if len(row) != len(attrs) {
			dict.give(sc)
			return nil, fmt.Errorf("exec: row width %d != %d attributes", len(row), len(attrs))
		}
		for _, p := range perm {
			cells = append(cells, dict.Intern(row[p]))
		}
	}
	sc.rows.cells = cells
	t.loadRows(len(rows), sc)
	dict.give(sc)
	return t, nil
}

// loadRows is the tail of every row loader, on sc, the scratch taken from
// t's Dict: t is empty, and sc.rows.cells holds its n rows, row-major in
// t's column order. loadRows keeps the first occurrence of each distinct
// row, in order, compacting the cells in place through the scratch's row
// set, then cuts t's columns from the scratch's slab, at the distinct
// count.
func (t *Table) loadRows(n int, sc *evalScratch) {
	set, w := &sc.rows, len(t.cols)
	set.cells = set.cells[:n*w]
	set.reset(t.dict.mul, w, n, true)
	set.add(n)
	t.rows = set.rows
	set.columns(t.cols, sc.ints(t.rows*w))
}

// sortedPerm returns perm with perm[i] = the position in attrs of sorted[i],
// the caller-order cell that feeds sorted column i.
func sortedPerm(sorted, attrs []string) []int {
	perm := make([]int, len(sorted))
	for i, a := range sorted {
		perm[i] = slices.Index(attrs, a)
	}
	return perm
}

// FromRelation converts an internal/relation relation, interning its values
// into dict. Relation attributes are already sorted and rows already
// distinct, so the conversion is a single allocation-free sweep over the
// relation's internal row storage (ForEachRow).
func FromRelation(dict *Dict, r *relation.Relation) *Table {
	attrs := make([]string, r.NumAttrs())
	for i := range attrs {
		attrs[i] = r.Attr(i)
	}
	t := &Table{dict: dict, attrs: attrs, cols: make([][]int32, len(attrs))}
	for i := range t.cols {
		t.cols[i] = make([]int32, 0, r.Card())
	}
	r.ForEachRow(func(row []string) {
		for i := range t.cols {
			t.cols[i] = append(t.cols[i], dict.Intern(row[i]))
		}
	})
	t.rows = r.Card()
	return t
}

// ToRelation materializes the table as an internal/relation relation, the
// bridge the differential suite compares through.
func (t *Table) ToRelation() *relation.Relation {
	rows := make([][]string, t.rows)
	for r := 0; r < t.rows; r++ {
		row := make([]string, len(t.attrs))
		for c := range t.cols {
			row[c] = t.dict.Value(t.cols[c][r])
		}
		rows[r] = row
	}
	return relation.MustNew(append([]string{}, t.attrs...), rows...)
}

// Dict returns the shared value dictionary.
func (t *Table) Dict() *Dict { return t.dict }

// NumRows returns the number of (distinct) rows.
func (t *Table) NumRows() int { return t.rows }

// NumAttrs returns the number of attributes.
func (t *Table) NumAttrs() int { return len(t.attrs) }

// Attr returns the i-th attribute name (attributes are sorted).
func (t *Table) Attr(i int) string { return t.attrs[i] }

// Attrs returns a copy of the attribute names in sorted order.
func (t *Table) Attrs() []string { return append([]string{}, t.attrs...) }

// colIndex returns the column position of attribute a, or -1.
func (t *Table) colIndex(a string) int {
	lo, hi := 0, len(t.attrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.attrs[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.attrs) && t.attrs[lo] == a {
		return lo
	}
	return -1
}

// Value returns the string value at (row, attribute-index).
func (t *Table) Value(row, col int) string { return t.dict.Value(t.cols[col][row]) }

// hashCells is the package's one row hash, over the cells of columns idx
// of row: it starts at a Dict's random odd multiplier mul and folds each
// cell in as h = (h ^ cell) * mul, and its users take buckets from the top
// bits, so a hostile body cannot aim rows at one chain or probe run.
// Collisions are resolved by cell comparison, never trusted; chains and
// row sets keep row order, so no output depends on the hash.
func hashCells(mul uint64, cols [][]int32, idx []int, row int) uint64 {
	h := mul
	for _, c := range idx {
		h = mix(h, mul, cols[c][row])
	}
	return h
}

// mix folds cell c into the row hash h under multiplier mul.
func mix(h, mul uint64, c int32) uint64 { return (h ^ uint64(uint32(c))) * mul }

// rowSet is the package's one set of rows: the loaders dedup each table
// through it, and every fused join (so every projection) writes its output
// rows through it. Rows are staged row-major after the rows kept so far, a
// loader's all at once and a join's one at a time at next, and add keeps
// each that is new, so the set holds the first occurrence of each distinct
// row, in order; columns then turns the kept rows into columns once, at
// the distinct count. A set reset without dedup keeps every staged row and
// never touches its slots, for a caller whose rows are distinct already or
// deduped in a bitmap.
//
// The slots are open addressing with linear probing, never more than
// three quarters full. A slot packs the top 32 bits of its row's hash,
// which fix the row's bucket at every size up to 2³² slots, above the
// row's index + 1; 0 is empty. A probe thus compares hashes without
// leaving the slot array, and runs of eight slots share a cache line,
// which is what lets the load run this high.
type rowSet struct {
	mul   uint64  // the hash multiplier of the rows' Dict
	width int     // cells per row
	cells []int32 // kept rows, then the staged one, row-major
	slots []uint64
	shift uint // 64 - log2(len(slots))
	rows  int  // rows kept
	dedup bool
}

// reset empties the set for rows of width cells hashed under mul, with
// room for hint rows and, when it dedups, at least 2·hint slots. The cells
// are not cleared, so a loader's rows staged there survive.
func (rs *rowSet) reset(mul uint64, width, hint int, dedup bool) {
	rs.mul, rs.width, rs.rows, rs.dedup = mul, width, 0, dedup
	if cap(rs.cells) < hint*width {
		rs.cells = make([]int32, 0, hint*width)
	}
	if !dedup {
		return
	}
	size := 1 << bits.Len(uint(2*max(hint, 1)-1))
	rs.slots = resize(rs.slots, size)
	clear(rs.slots)
	rs.shift = uint(65 - bits.Len(uint(size)))
}

// next returns the staging row, after the rows kept so far, for the
// caller to fill before add(1). The cells double when full, so a kernel
// that writes many rows discards at most as many cells as it keeps.
func (rs *rowSet) next() []int32 {
	lo, hi := rs.rows*rs.width, (rs.rows+1)*rs.width
	if hi > cap(rs.cells) {
		rs.cells = append(make([]int32, 0, 2*hi), rs.cells[:lo]...)
	}
	if hi > len(rs.cells) {
		rs.cells = rs.cells[:hi]
	}
	return rs.cells[lo:hi]
}

// add takes the n rows staged back to back after the kept ones, in order,
// and keeps each that the set does not dedup away as equal to a row kept
// before it, moving it up to follow them.
func (rs *rowSet) add(n int) {
	if !rs.dedup { // every staged row is kept, in place
		rs.rows += n
		return
	}
	w, k, end := rs.width, rs.rows, rs.rows+n
	cells, slots, mul, shift := rs.cells, rs.slots, rs.mul, rs.shift
	for r := k; r < end; r++ {
		row := cells[r*w : r*w+w]
		h := mul
		for _, c := range row {
			h = mix(h, mul, c)
		}
		tag, mask := h&^math.MaxUint32, uint64(len(slots)-1)
		b := h >> shift
		for ; slots[b] != 0; b = (b + 1) & mask {
			if v := slots[b]; v&^math.MaxUint32 == tag && slices.Equal(cells[(int(uint32(v))-1)*w:][:w], row) {
				break
			}
		}
		if slots[b] != 0 {
			continue // an equal row is kept
		}
		slots[b] = tag | uint64(k+1)
		if r != k {
			copy(cells[k*w:], row)
		}
		if k++; 4*k > 3*len(slots) {
			rs.grow()
			slots, shift = rs.slots, rs.shift
		}
	}
	rs.rows = k
}

// grow doubles the slot array and moves every slot to its bucket there;
// the rows are distinct, so no cells are compared.
func (rs *rowSet) grow() {
	old := rs.slots
	rs.slots = make([]uint64, 2*len(old))
	rs.shift--
	mask := uint64(len(rs.slots) - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		b := v >> rs.shift
		for rs.slots[b] != 0 {
			b = (b + 1) & mask
		}
		rs.slots[b] = v
	}
}

// columns sets cols, one per cell of a row, to the kept rows, cut from
// back, which holds exactly their cells.
func (rs *rowSet) columns(cols [][]int32, back []int32) {
	k, w := rs.rows, rs.width
	if k == 0 || w == 0 {
		return
	}
	for c := range cols {
		col := back[c*k : (c+1)*k : (c+1)*k]
		for r := range col {
			col[r] = rs.cells[r*w+c]
		}
		cols[c] = col
	}
}

func equalCells(aCols [][]int32, aIdx []int, aRow int, bCols [][]int32, bIdx []int, bRow int) bool {
	for k := range aIdx {
		if aCols[aIdx[k]][aRow] != bCols[bIdx[k]][bRow] {
			return false
		}
	}
	return true
}

// Equal reports set equality of rows over identical schemas and a shared
// dictionary. Both tables' rows are distinct, so they are equal when s's
// rows, staged in a rowSet after t's, add none.
func (t *Table) Equal(s *Table) bool {
	if t.dict != s.dict || t.rows != s.rows || !slices.Equal(t.attrs, s.attrs) {
		return false
	}
	var set rowSet
	set.reset(t.dict.mul, len(t.cols), t.rows+s.rows, true)
	for _, u := range []*Table{t, s} {
		for r := range u.rows {
			for _, col := range u.cols {
				set.cells = append(set.cells, col[r])
			}
		}
	}
	set.add(t.rows + s.rows)
	return set.rows == t.rows
}

// String renders a small header-plus-rows view, decoding the dictionary.
func (t *Table) String() string {
	return t.ToRelation().String()
}
