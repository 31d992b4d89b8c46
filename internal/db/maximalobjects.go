package db

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/gyo"
	"repro/internal/relation"
)

// Maximal objects implement the "additional semantics, such as proposed in
// [8]" that §7 prescribes for cyclic schemas (Maier & Ullman, "Maximal
// objects and the semantics of universal relation databases", ACM TODS 8(1),
// 1983). A *maximal object* is a maximal set of objects (edges) whose
// sub-hypergraph is connected and acyclic: within one maximal object the
// canonical connection is uniquely defined (Theorem 6.1), so queries are
// answered per maximal object and the results are unioned.

// MaximalObjects enumerates the maximal edge subsets of the schema whose
// sub-hypergraphs are connected and α-acyclic, in deterministic order. The
// search is exponential in the edge count and is capped to keep it usable
// (schemas are small in this setting).
func MaximalObjects(d *Database) ([][]int, error) {
	m := d.Schema.NumEdges()
	const maxEdges = 20
	if m > maxEdges {
		return nil, fmt.Errorf("db: maximal-object enumeration capped at %d edges, have %d", maxEdges, m)
	}
	all := d.Schema.Edges()
	sub := func(mask int) ([]bitset.Set, bitset.Set) {
		var edges []bitset.Set
		var nodes bitset.Set
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				edges = append(edges, all[b])
				nodes.InPlaceOr(all[b])
			}
		}
		return edges, nodes
	}
	good := func(mask int) bool {
		edges, nodes := sub(mask)
		g := d.Schema.Derive(nodes, edges)
		return g.IsConnected() && gyo.IsAcyclic(g)
	}
	// Collect maximal good masks: a good mask is maximal if no good mask
	// properly contains it. Enumerate from largest popcount downward with
	// subsumption pruning.
	var goodMasks []int
	for mask := 1; mask < 1<<m; mask++ {
		if good(mask) {
			goodMasks = append(goodMasks, mask)
		}
	}
	var maximal []int
	for _, a := range goodMasks {
		dominated := false
		for _, b := range goodMasks {
			if a != b && a&b == a {
				dominated = true
				break
			}
		}
		if !dominated {
			maximal = append(maximal, a)
		}
	}
	sort.Ints(maximal)
	out := make([][]int, 0, len(maximal))
	for _, mask := range maximal {
		var ids []int
		for b := 0; b < m; b++ {
			if mask&(1<<b) != 0 {
				ids = append(ids, b)
			}
		}
		out = append(out, ids)
	}
	return out, nil
}

// QueryMaximalObjects answers a query over attrs with maximal-object
// semantics: for every maximal object whose node set covers attrs, answer
// the query inside that (acyclic) sub-schema via its canonical connection,
// then union the per-object answers. It returns an error when no maximal
// object covers the attributes (the query has no unambiguous reading).
func (d *Database) QueryMaximalObjects(attrs []string) (*relation.Relation, error) {
	x, err := d.Schema.Set(attrs...)
	if err != nil {
		return nil, err
	}
	mos, err := MaximalObjects(d)
	if err != nil {
		return nil, err
	}
	var acc *relation.Relation
	all := d.Schema.Edges()
	for _, mo := range mos {
		var nodes bitset.Set
		var edges []bitset.Set
		objects := make([]*relation.Relation, 0, len(mo))
		for _, e := range mo {
			nodes.InPlaceOr(all[e])
			edges = append(edges, all[e])
			objects = append(objects, d.Objects[e])
		}
		if !x.IsSubset(nodes) {
			continue
		}
		subSchema := d.Schema.Derive(nodes, edges)
		subDB := &Database{Schema: subSchema, Objects: objects}
		ans, err := subDB.QueryCC(attrs)
		if err != nil {
			return nil, fmt.Errorf("db: maximal object %v: %w", mo, err)
		}
		if acc == nil {
			acc = ans
		} else {
			acc, err = acc.Union(ans)
			if err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("db: no maximal object covers attributes %v", attrs)
	}
	return acc, nil
}
