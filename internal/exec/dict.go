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
//     shared value Dict. Three loaders fill it: FromRelation (and
//     FromRelations for a whole database) from internal/relation, LoadCSV
//     from CSV, and ScanJSONRows from JSON rows straight from the bytes of
//     a request body, in place.
//   - Semijoin / Join / Project: serial hash kernels on column ids, each
//     observing context cancellation every ~4096 rows.
//   - Database: a schema (hypergraph) bound to one Table per edge, all
//     sharing one Dict so cross-table comparisons stay id-equality.
//   - Reduce: runs a join tree's full reducer as a streaming two-pass
//     reduction, step by step in program order, with per-step statistics
//     (rows in/out, elapsed). Each step picks its semijoin kernel from
//     the input: a dense stamp filter when the pair shares exactly one
//     column, the hash kernel otherwise.
//   - Eval: full Yannakakis evaluation — reduce, then join bottom-up along
//     the join tree with projection pushdown, output-sensitive.
//
// Reduce and Eval are the only drivers, and both run serially: a query's
// output, row order included, is a function of its input.
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

// Dict interns attribute values to dense int32 ids. Every Table of a
// Database shares one Dict, so equality of values across tables is equality
// of ids — the property the hash kernels rely on. The zero value is not
// usable; construct with NewDict. A Dict is not safe for concurrent
// mutation; load tables from one goroutine (kernels never intern).
type Dict struct {
	vals []string
	ids  map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Intern returns the id of s, assigning the next free id on first sight.
func (d *Dict) Intern(s string) int32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.ids[s] = id
	return id
}

// internBytes is Intern for a value still in its source buffer: a hit
// costs one map probe and no allocation, and a first sight copies b, so the
// dictionary never pins the buffer.
func (d *Dict) internBytes(b []byte) int32 {
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	return d.Intern(string(b))
}

// Lookup returns the id of s without interning.
func (d *Dict) Lookup(s string) (int32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Value returns the string for a value id. It panics on an invalid id.
func (d *Dict) Value(id int32) string { return d.vals[id] }

// Len returns the number of distinct values interned.
func (d *Dict) Len() int { return len(d.vals) }
