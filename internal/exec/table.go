package exec

import (
	"context"
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
	cells := dict.cells[:0]
	for _, row := range rows {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("exec: row width %d != %d attributes", len(row), len(attrs))
		}
		for _, p := range perm {
			cells = append(cells, dict.Intern(row[p]))
		}
	}
	dict.cells = cells
	return t.loadRows(len(rows)), nil
}

// maxScratch bounds the cells and row-set slots a Dict keeps between
// loads, so a dictionary that once loaded a huge table does not pin its
// scratch for life; eval-join's tables fit well inside it.
const maxScratch = 1 << 16

// loadRows is the tail of every row loader: t is empty, and t.dict.cells
// holds its n rows, row-major in t's column order. loadRows keeps the first
// occurrence of each distinct row, in order, compacting the scratch in
// place through an open-addressing set of at least 2n slots, then
// allocates t's columns once, at the distinct count. A slot packs the top
// 32 bits of its row's hash above the row's compacted index + 1; 0 is
// empty. The row hash is seeded with the Dict's random multiplier, so a
// hostile body cannot aim rows at one probe run either.
func (t *Table) loadRows(n int) *Table {
	d, w := t.dict, len(t.cols)
	cells := d.cells[:n*w]
	size := 1 << bits.Len(uint(2*max(n, 1)-1))
	if cap(d.rowSet) < size {
		d.rowSet = make([]uint64, size)
	}
	set := d.rowSet[:size]
	clear(set)
	shift, mask := uint(65-bits.Len(uint(size))), uint64(size-1)
	k := 0
	for r := 0; r < n; r++ {
		row := cells[r*w : r*w+w]
		h := d.mul
		for _, c := range row {
			h = (h ^ uint64(uint32(c))) * d.mul
		}
		tag := h &^ math.MaxUint32
		for b := h >> shift; ; b = (b + 1) & mask {
			v := set[b]
			if v == 0 {
				set[b] = tag | uint64(k+1)
				copy(cells[k*w:], row)
				k++
				break
			}
			if j := int(uint32(v)) - 1; v&^math.MaxUint32 == tag && slices.Equal(cells[j*w:j*w+w], row) {
				break
			}
		}
	}
	t.rows = k
	if k > 0 && w > 0 {
		back := make([]int32, k*w)
		for c := range t.cols {
			col := back[c*k : (c+1)*k : (c+1)*k]
			for r := range col {
				col[r] = cells[r*w+c]
			}
			t.cols[c] = col
		}
	}
	if cap(d.cells) > maxScratch {
		d.cells = nil
	}
	if cap(d.rowSet) > maxScratch {
		d.rowSet = nil
	}
	return t
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

// FNV-1a over the int32 cells of selected columns; the kernels' row and key
// hash. Collisions are resolved by cell comparison, never trusted.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashCells(cols [][]int32, idx []int, row int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range idx {
		h = mixCell(h, cols[c][row])
	}
	return h
}

// mixCell folds one cell into an FNV-1a hash.
func mixCell(h uint64, v int32) uint64 {
	u := uint32(v)
	h ^= uint64(u & 0xff)
	h *= fnvPrime64
	h ^= uint64(u >> 8)
	h *= fnvPrime64
	return h
}

func equalCells(aCols [][]int32, aIdx []int, aRow int, bCols [][]int32, bIdx []int, bRow int) bool {
	for k := range aIdx {
		if aCols[aIdx[k]][aRow] != bCols[bIdx[k]][bRow] {
			return false
		}
	}
	return true
}

// allCols returns [0, 1, ..., n).
func allCols(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Equal reports set equality of rows over identical schemas and a shared
// dictionary.
func (t *Table) Equal(s *Table) bool {
	if t.dict != s.dict || t.rows != s.rows || len(t.attrs) != len(s.attrs) {
		return false
	}
	for i := range t.attrs {
		if t.attrs[i] != s.attrs[i] {
			return false
		}
	}
	idx := allCols(len(t.cols))
	// A background context is never cancelled, so buildTable cannot fail.
	pt, _ := buildTable(context.Background(), t, idx)
	for r := 0; r < s.rows; r++ {
		h := hashCells(s.cols, idx, r)
		j := pt.first(h)
		for j >= 0 && (pt.hash[j] != h || !equalCells(t.cols, idx, int(j), s.cols, idx, r)) {
			j = pt.next[j]
		}
		if j < 0 {
			return false
		}
	}
	return true
}

// String renders a small header-plus-rows view, decoding the dictionary.
func (t *Table) String() string {
	return t.ToRelation().String()
}
