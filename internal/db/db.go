// Package db implements the universal relation interpretation of §7:
// a database whose schema is a hypergraph (nodes = attributes, edges =
// objects) and whose instance assigns a relation to each object.
//
// Queries over a set of attributes X are answered by joining objects and
// projecting onto X. The paper's point is *which* objects to join: the
// canonical connection CC(X) — and for acyclic schemas that connection is
// uniquely defined, so the straightforward implementation (join everything)
// and the minimized one (join only CC(X)) agree on consistent data. The
// package also provides Yannakakis-style evaluation through a semijoin full
// reducer over a join tree, and join-dependency checking.
package db

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/relation"
	"repro/internal/tableau"
)

// Database binds a hypergraph schema to one relation per edge (object).
// Object i's relation must have exactly the attributes of edge i.
type Database struct {
	Schema  *hypergraph.Hypergraph
	Objects []*relation.Relation
}

// New validates that the relations match the schema's edges.
func New(schema *hypergraph.Hypergraph, objects []*relation.Relation) (*Database, error) {
	if len(objects) != schema.NumEdges() {
		return nil, fmt.Errorf("db: %d objects for %d edges", len(objects), schema.NumEdges())
	}
	for i, o := range objects {
		want := schema.EdgeNodes(i)
		if len(want) != o.NumAttrs() {
			return nil, fmt.Errorf("db: object %d has attributes %v, want %v", i, o.Attrs(), want)
		}
		for j := range want {
			if want[j] != o.Attr(j) {
				return nil, fmt.Errorf("db: object %d has attributes %v, want %v", i, o.Attrs(), want)
			}
		}
	}
	return &Database{Schema: schema, Objects: objects}, nil
}

// FromUniversal projects a universal relation u onto every object of the
// schema, producing a globally consistent instance. u must contain every
// schema attribute.
func FromUniversal(schema *hypergraph.Hypergraph, u *relation.Relation) (*Database, error) {
	objects := make([]*relation.Relation, schema.NumEdges())
	for i := 0; i < schema.NumEdges(); i++ {
		p, err := u.Project(schema.EdgeNodes(i))
		if err != nil {
			return nil, fmt.Errorf("db: universal relation misses attributes of edge %d: %w", i, err)
		}
		objects[i] = p
	}
	return New(schema, objects)
}

// FullJoin returns the natural join of all objects.
func (d *Database) FullJoin() *relation.Relation {
	return relation.JoinAll(d.Objects)
}

// QueryFull answers the universal-relation query for attrs by joining every
// object and projecting: π_attrs(⋈ all objects).
func (d *Database) QueryFull(attrs []string) (*relation.Relation, error) {
	return d.FullJoin().Project(attrs)
}

// QueryCC answers the query the way tableau minimization rewrites it (§7):
// join only the objects in the canonical connection CC(attrs), each
// projected onto its partial edge, then project onto attrs. Attributes
// outside the schema are an error; attributes in no object yield an error
// as well (their canonical connection is empty).
func (d *Database) QueryCC(attrs []string) (*relation.Relation, error) {
	x, err := d.Schema.Set(attrs...)
	if err != nil {
		return nil, err
	}
	mn := tableau.Reduce(d.Schema, x)
	cc := mn.Hypergraph()
	if !x.IsSubset(cc.CoveredNodes()) {
		return nil, fmt.Errorf("db: attributes %v not covered by the canonical connection", attrs)
	}
	parts := make([]*relation.Relation, 0, len(mn.Rows))
	kept := mn.KeptNodes()
	edges := d.Schema.Edges()
	for _, r := range mn.Rows {
		partial := d.Schema.NodeNames(edges[r].And(kept))
		p, err := d.Objects[r].Project(partial)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return relation.JoinAll(parts).Project(attrs)
}

// ConnectionObjects returns the indices of the objects in the canonical
// connection of attrs, i.e. the minimal tableau rows.
func (d *Database) ConnectionObjects(attrs []string) ([]int, error) {
	x, err := d.Schema.Set(attrs...)
	if err != nil {
		return nil, err
	}
	mn := tableau.Reduce(d.Schema, x)
	return append([]int{}, mn.Rows...), nil
}

// QueryYannakakis answers π_attrs(⋈ all objects) with the classic
// acyclic-schema strategy: run the semijoin full reducer over a join tree,
// then join bottom-up with early projection onto attrs plus join keys.
// It fails when the schema is cyclic (no join tree exists).
func (d *Database) QueryYannakakis(attrs []string) (*relation.Relation, error) {
	t, ok := jointree.Build(d.Schema)
	if !ok {
		return nil, fmt.Errorf("db: schema is cyclic; Yannakakis evaluation needs an acyclic schema")
	}
	reduced := d.ApplyReducer(t.FullReducer())
	// Bottom-up join along the tree with projection onto needed attributes.
	want := map[string]bool{}
	for _, a := range attrs {
		want[a] = true
	}
	ch := t.Children()
	edges := d.Schema.Edges()
	var build func(v int) (*relation.Relation, error)
	build = func(v int) (*relation.Relation, error) {
		acc := reduced[v]
		for _, c := range ch[v] {
			sub, err := build(c)
			if err != nil {
				return nil, err
			}
			acc = acc.Join(sub)
		}
		// Early projection: keep query attributes plus the connection to the
		// parent (its shared attributes). Indexed attribute access avoids
		// re-copying the attribute list at every tree node.
		keep := make([]string, 0, acc.NumAttrs())
		for i := 0; i < acc.NumAttrs(); i++ {
			a := acc.Attr(i)
			if want[a] {
				keep = append(keep, a)
				continue
			}
			p := t.Parent[v]
			if p >= 0 {
				if id, ok := d.Schema.NodeID(a); ok && edges[p].Contains(id) {
					keep = append(keep, a)
				}
			}
		}
		return acc.Project(keep)
	}
	var acc *relation.Relation
	for _, root := range t.Roots() {
		sub, err := build(root)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = sub
		} else {
			acc = acc.Join(sub)
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("db: empty schema")
	}
	return acc.Project(attrs)
}

// ApplyReducer runs a semijoin program over copies of the objects and
// returns the reduced relations.
func (d *Database) ApplyReducer(prog []jointree.SemijoinStep) []*relation.Relation {
	out := make([]*relation.Relation, len(d.Objects))
	copy(out, d.Objects)
	for _, s := range prog {
		out[s.Target] = out[s.Target].Semijoin(out[s.Source])
	}
	return out
}

// IsGloballyConsistent reports whether every object equals the projection of
// the full join onto its attributes (no dangling tuples anywhere).
func (d *Database) IsGloballyConsistent() bool {
	j := d.FullJoin()
	for i, o := range d.Objects {
		p, err := j.Project(d.Schema.EdgeNodes(i))
		if err != nil || !p.Equal(o) {
			return false
		}
	}
	return true
}

// IsPairwiseConsistent reports whether every pair of objects agrees on its
// shared attributes: π_shared(R_i) == π_shared(R_j). For acyclic schemas
// pairwise consistency implies global consistency (BFMY); for cyclic schemas
// it does not, which is the §7 warning this package demonstrates.
func (d *Database) IsPairwiseConsistent() bool {
	edges := d.Schema.Edges()
	for i := 0; i < len(d.Objects); i++ {
		for j := i + 1; j < len(d.Objects); j++ {
			shared := d.Schema.NodeNames(edges[i].And(edges[j]))
			if len(shared) == 0 {
				continue
			}
			pi, err1 := d.Objects[i].Project(shared)
			pj, err2 := d.Objects[j].Project(shared)
			if err1 != nil || err2 != nil || !pi.Equal(pj) {
				return false
			}
		}
	}
	return true
}

// JD is a join dependency ⋈[E₁, …, E_k] given by the edges of a hypergraph
// over attribute names.
type JD struct {
	Schema *hypergraph.Hypergraph
}

// IsAcyclic reports whether the join dependency is acyclic — the class the
// paper characterizes ("universal relations described by acyclic join
// dependencies are exactly those for which the connections among attributes
// are defined uniquely").
func (j JD) IsAcyclic() bool { return !core.HasIndependentPath(j.Schema) }

// Satisfies reports whether relation u satisfies the join dependency:
// u == ⋈_i π_{E_i}(u). u's attributes must cover the schema's nodes.
func (j JD) Satisfies(u *relation.Relation) (bool, error) {
	d, err := FromUniversal(j.Schema, u)
	if err != nil {
		return false, err
	}
	join := d.FullJoin()
	proj, err := u.Project(j.Schema.Nodes())
	if err != nil {
		return false, err
	}
	return join.Equal(proj), nil
}

// Sacred converts attribute names to a bitset over the schema, for callers
// bridging to the hypergraph layer.
func (d *Database) Sacred(attrs ...string) (bitset.Set, error) {
	return d.Schema.Set(attrs...)
}
