package exec

import (
	"fmt"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Database binds a hypergraph schema to one columnar table per edge
// (object), all sharing one value dictionary. It is the execution-layer
// sibling of internal/db.Database: same shape, columnar substrate.
type Database struct {
	Schema *hypergraph.Hypergraph
	Tables []*Table
}

// NewDatabase validates that each table's attributes are exactly the node
// names of its edge and that every table shares one dictionary (the hash
// kernels compare value ids across tables, which is only sound under a
// shared Dict).
func NewDatabase(schema *hypergraph.Hypergraph, tables []*Table) (*Database, error) {
	if len(tables) != schema.NumEdges() {
		return nil, fmt.Errorf("exec: %d tables for %d edges", len(tables), schema.NumEdges())
	}
	var dict *Dict
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("exec: table %d is nil", i)
		}
		if dict == nil {
			dict = t.dict
		} else if t.dict != dict {
			return nil, fmt.Errorf("exec: table %d does not share the database dictionary", i)
		}
		// Table attributes are sorted; edge node names are in id order,
		// which is sorted for name-built hypergraphs but not for FromIDs
		// universes ("N10" < "N2"), so compare as sets.
		want := schema.EdgeNodes(i) // a fresh slice
		sort.Strings(want)
		if len(want) != t.NumAttrs() {
			return nil, fmt.Errorf("exec: table %d has attributes %v, want %v", i, t.Attrs(), want)
		}
		for j, a := range want {
			if t.Attr(j) != a {
				return nil, fmt.Errorf("exec: table %d has attributes %v, want %v", i, t.Attrs(), want)
			}
		}
	}
	return &Database{Schema: schema, Tables: tables}, nil
}

// FromRelations converts a slice of internal/relation objects (one per
// edge, as in db.Database) into a columnar database over a fresh shared
// dictionary.
func FromRelations(schema *hypergraph.Hypergraph, objects []*relation.Relation) (*Database, error) {
	dict := NewDict()
	tables := make([]*Table, len(objects))
	for i, o := range objects {
		if o == nil {
			return nil, fmt.Errorf("exec: object %d is nil", i)
		}
		tables[i] = FromRelation(dict, o)
	}
	return NewDatabase(schema, tables)
}

// Relations materializes every table back into internal/relation form — the
// bridge the differential suite compares through.
func (d *Database) Relations() []*relation.Relation {
	out := make([]*relation.Relation, len(d.Tables))
	for i, t := range d.Tables {
		out[i] = t.ToRelation()
	}
	return out
}

// Dict returns the shared dictionary (nil for an edgeless schema).
func (d *Database) Dict() *Dict {
	if len(d.Tables) == 0 {
		return nil
	}
	return d.Tables[0].dict
}

// NumRows returns the total row count across all tables.
func (d *Database) NumRows() int {
	n := 0
	for _, t := range d.Tables {
		n += t.rows
	}
	return n
}
