package repro

import (
	"io"

	"repro/internal/exec"
)

// Execution-layer re-exports: the columnar query-execution subsystem that
// runs full-reducer programs and acyclic joins over real data. See
// internal/exec for the kernel documentation and the reduce→eval contract.
type (
	// Dict interns attribute values to dense int32 ids; every table of a
	// columnar database shares one.
	Dict = exec.Dict
	// ExecTable is a set-semantics relation stored as dictionary-encoded
	// int32 columns — the execution-layer sibling of Relation.
	ExecTable = exec.Table
	// ExecDatabase binds a schema to one columnar table per edge over a
	// shared dictionary — the execution-layer sibling of Database.
	ExecDatabase = exec.Database
	// StepStats records one semijoin statement of a reduction run: rows
	// in/out and elapsed time.
	StepStats = exec.StepStats
	// ReduceResult is the outcome of running a full-reducer program over a
	// columnar database: the reduced database plus per-step stats.
	ReduceResult = exec.ReduceResult
	// EvalResult is the outcome of a full Yannakakis evaluation: the output
	// table, the embedded reduction, and the row pairs matched while joining
	// the canonical connection.
	EvalResult = exec.EvalResult
)

// NewDict returns an empty value dictionary for building columnar tables.
func NewDict() *Dict { return exec.NewDict() }

// NewExecTable builds a columnar table from string rows given in the order
// of attrs; values are interned into dict and duplicate rows collapse.
func NewExecTable(dict *Dict, attrs []string, rows [][]string) (*ExecTable, error) {
	return exec.FromRows(dict, attrs, rows)
}

// TableFromRelation converts a Relation into a columnar table over dict.
func TableFromRelation(dict *Dict, r *Relation) *ExecTable {
	return exec.FromRelation(dict, r)
}

// LoadTableCSV reads a columnar table from CSV: a header naming the
// attributes, then one record per row. Values are interned into dict.
func LoadTableCSV(dict *Dict, r io.Reader) (*ExecTable, error) {
	return exec.LoadCSV(dict, r)
}

// NewExecDatabase binds a schema to one columnar table per edge. All tables
// must share one dictionary, and table attributes must match their edges.
func NewExecDatabase(schema *Hypergraph, tables []*ExecTable) (*ExecDatabase, error) {
	return exec.NewDatabase(schema, tables)
}

// ExecDatabaseFromRelations converts one Relation per edge into a columnar
// database over a fresh shared dictionary — the bridge from the paper-scale
// relation layer to the execution layer.
func ExecDatabaseFromRelations(schema *Hypergraph, objects []*Relation) (*ExecDatabase, error) {
	return exec.FromRelations(schema, objects)
}
