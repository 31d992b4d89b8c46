package db

import (
	"repro/internal/jointree"
	"repro/internal/relation"
)

// SemijoinFixpoint iterates pairwise semijoins over all object pairs with
// shared attributes until no object shrinks, returning the reduced objects
// and the number of passes. The fixpoint is pairwise consistent by
// construction.
//
// This is the brute-force counterpart of a full reducer (Bernstein–Goodman,
// "The power of natural semijoins"): for *acyclic* schemas the two-pass
// join-tree program reaches the same fixpoint — and that fixpoint is
// globally consistent. For cyclic schemas no semijoin program achieves
// global consistency in general: the triangle witness instance reaches this
// fixpoint unchanged while its full join stays empty, which is the §7
// warning in relational terms.
func (d *Database) SemijoinFixpoint() ([]*relation.Relation, int) {
	objects := make([]*relation.Relation, len(d.Objects))
	copy(objects, d.Objects)
	passes := 0
	edges := d.Schema.Edges()
	for {
		passes++
		changed := false
		for i := range objects {
			for j := range objects {
				if i == j {
					continue
				}
				if !edges[i].Intersects(edges[j]) {
					continue
				}
				next := objects[i].Semijoin(objects[j])
				if next.Card() != objects[i].Card() {
					objects[i] = next
					changed = true
				}
			}
		}
		if !changed {
			return objects, passes
		}
	}
}

// ReducesFully reports whether applying prog to this instance reaches the
// pairwise-consistent semijoin fixpoint — the defining property of a full
// reducer on the instance. For acyclic schemas the join-tree program of
// jointree.FullReducer passes this for every instance.
func (d *Database) ReducesFully(prog []jointree.SemijoinStep) bool {
	byProg := d.ApplyReducer(prog)
	fix, _ := d.SemijoinFixpoint()
	for i := range fix {
		if !fix[i].Equal(byProg[i]) {
			return false
		}
	}
	return true
}
