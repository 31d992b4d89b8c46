// Package chase implements the chase procedure for join dependencies on
// tableaux (Aho–Sagiv–Ullman style), the dependency-theoretic machinery
// behind §7's "acyclic join dependencies".
//
// A tableau here is a set of rows over a fixed attribute universe; cell
// values are variables, with variable i < len(Attrs) *distinguished* for
// attribute i. A join dependency ⋈[R₁,…,R_k] licenses the chase step: given
// rows w₁,…,w_k that agree pairwise on R_i ∩ R_j, add the woven row taking
// its R_i-values from w_i. Chasing to a fixpoint decides implication: the
// dependencies imply a target JD iff chasing the target's canonical tableau
// produces the fully distinguished row.
//
// Multivalued dependencies are the two-component special case
// X →→ Y ≡ ⋈[X∪Y, X∪(U−Y)], which is how the join-tree MVD basis of an
// acyclic schema is expressed (Beeri–Fagin–Maier–Yannakakis: an acyclic JD
// is equivalent to the MVDs read off its join tree; cyclic JDs are not).
package chase

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hypergraph"
)

// JD is a join dependency ⋈[Components...] over an attribute universe.
// Components must cover the universe they are applied to.
type JD struct {
	Components [][]string
}

// FromHypergraph reads a JD off a hypergraph's edges.
func FromHypergraph(h *hypergraph.Hypergraph) JD {
	return JD{Components: h.EdgeLists()}
}

// MVD builds the multivalued dependency X →→ Y over the given universe as
// the two-component JD ⋈[X ∪ Y, X ∪ (U − Y)].
func MVD(x, y, universe []string) JD {
	inX := toSet(x)
	inY := toSet(y)
	var left, right []string
	for _, a := range universe {
		if inX[a] || inY[a] {
			left = append(left, a)
		}
		if inX[a] || !inY[a] {
			right = append(right, a)
		}
	}
	return JD{Components: [][]string{left, right}}
}

func toSet(s []string) map[string]bool {
	m := map[string]bool{}
	for _, a := range s {
		m[a] = true
	}
	return m
}

// String renders the dependency as ⋈[{A B}, {B C}].
func (j JD) String() string {
	parts := make([]string, len(j.Components))
	for i, c := range j.Components {
		parts[i] = "{" + strings.Join(c, " ") + "}"
	}
	return "⋈[" + strings.Join(parts, ", ") + "]"
}

// Tableau is a chase tableau: rows of variable ids over sorted attributes.
// Variable v < len(Attrs) is the distinguished variable of attribute v.
type Tableau struct {
	Attrs []string
	Rows  [][]int
	pos   map[string]int
	next  int // next fresh variable id
	seen  map[string]bool
}

// NewTableau creates an empty tableau over the sorted universe.
func NewTableau(universe []string) *Tableau {
	attrs := append([]string{}, universe...)
	sort.Strings(attrs)
	t := &Tableau{Attrs: attrs, pos: map[string]int{}, next: len(attrs), seen: map[string]bool{}}
	for i, a := range attrs {
		t.pos[a] = i
	}
	return t
}

// AddRow appends a row that is distinguished exactly on the given
// attributes and fresh elsewhere.
func (t *Tableau) AddRow(distinguished []string) error {
	in := toSet(distinguished)
	row := make([]int, len(t.Attrs))
	for i, a := range t.Attrs {
		if in[a] {
			row[i] = i
		} else {
			row[i] = t.next
			t.next++
		}
	}
	for a := range in {
		if _, ok := t.pos[a]; !ok {
			return fmt.Errorf("chase: attribute %q outside the universe", a)
		}
	}
	t.insert(row)
	return nil
}

func (t *Tableau) insert(row []int) bool {
	k := rowKey(row)
	if t.seen[k] {
		return false
	}
	t.seen[k] = true
	t.Rows = append(t.Rows, row)
	return true
}

func rowKey(row []int) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Canonical builds the canonical tableau of a JD: one row per component,
// distinguished exactly on that component.
func Canonical(jd JD, universe []string) (*Tableau, error) {
	t := NewTableau(universe)
	for _, c := range jd.Components {
		if err := t.AddRow(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// HasFullDistinguishedRow reports whether some row is distinguished on
// every attribute.
func (t *Tableau) HasFullDistinguishedRow() bool {
	for _, row := range t.Rows {
		full := true
		for i, v := range row {
			if v != i {
				full = false
				break
			}
		}
		if full {
			return true
		}
	}
	return false
}

// Chase applies the given dependencies to a fixpoint, or until the row
// count would exceed maxRows (an error, guarding against blowup). Join
// dependencies are full (no fresh variables), so the chase terminates.
func (t *Tableau) Chase(jds []JD, maxRows int) error {
	for {
		added := false
		for _, jd := range jds {
			newRows, err := t.weaveAll(jd)
			if err != nil {
				return err
			}
			for _, row := range newRows {
				if t.insert(row) {
					added = true
					if len(t.Rows) > maxRows {
						return fmt.Errorf("chase: exceeded %d rows", maxRows)
					}
				}
			}
		}
		if !added {
			return nil
		}
	}
}

// weaveAll enumerates every applicable weave of jd over the current rows.
func (t *Tableau) weaveAll(jd JD) ([][]int, error) {
	k := len(jd.Components)
	comps := make([][]int, k) // attribute positions per component
	covered := make([]bool, len(t.Attrs))
	for i, c := range jd.Components {
		for _, a := range c {
			p, ok := t.pos[a]
			if !ok {
				return nil, fmt.Errorf("chase: attribute %q outside the universe", a)
			}
			comps[i] = append(comps[i], p)
			covered[p] = true
		}
	}
	for p, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("chase: JD does not cover attribute %q", t.Attrs[p])
		}
	}
	var out [][]int
	choice := make([]int, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			row := make([]int, len(t.Attrs))
			for idx := range row {
				row[idx] = -1
			}
			for ci, positions := range comps {
				w := t.Rows[choice[ci]]
				for _, p := range positions {
					row[p] = w[p]
				}
			}
			out = append(out, row)
			return
		}
		for r := range t.Rows {
			choice[i] = r
			// Agreement with previously chosen components on overlaps.
			ok := true
			for j := 0; j < i && ok; j++ {
				wj, wi := t.Rows[choice[j]], t.Rows[r]
				for _, p := range comps[i] {
					if contains(comps[j], p) && wj[p] != wi[p] {
						ok = false
						break
					}
				}
			}
			if ok {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Implies reports whether the given dependencies imply the target JD over
// the universe: chase the target's canonical tableau with `given` and look
// for the fully distinguished row.
func Implies(given []JD, target JD, universe []string, maxRows int) (bool, error) {
	t, err := Canonical(target, universe)
	if err != nil {
		return false, err
	}
	if err := t.Chase(given, maxRows); err != nil {
		return false, err
	}
	return t.HasFullDistinguishedRow(), nil
}

// JoinTreeMVDs derives the MVD basis of a schema from a join-tree parent
// array (as produced by jointree.Build): for every tree edge (child c,
// parent p), the separator E_c ∩ E_p multidetermines the attributes on the
// child's side of the cut. For acyclic schemas this basis is equivalent to
// the full join dependency (BFMY), which the tests verify by chase.
func JoinTreeMVDs(h *hypergraph.Hypergraph, parent []int) ([]JD, error) {
	universe := h.Nodes()
	var out []JD
	children := make([][]int, h.NumEdges())
	for c, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], c)
		}
	}
	// side(c) = attributes of the subtree rooted at c.
	var side func(c int) map[string]bool
	side = func(c int) map[string]bool {
		m := toSet(h.EdgeNodes(c))
		for _, ch := range children[c] {
			for a := range side(ch) {
				m[a] = true
			}
		}
		return m
	}
	edges := h.Edges()
	for c, p := range parent {
		if p < 0 {
			continue
		}
		sep := h.NodeNames(edges[c].And(edges[p]))
		branch := side(c)
		var y []string
		for a := range branch {
			y = append(y, a)
		}
		sort.Strings(y)
		out = append(out, MVD(sep, y, universe))
	}
	return out, nil
}

// String renders the tableau for debugging: variables as d<i> when
// distinguished, v<i> otherwise.
func (t *Tableau) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Attrs, " "))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			if v < len(t.Attrs) {
				parts[i] = "d" + fmt.Sprint(v)
			} else {
				parts[i] = "v" + fmt.Sprint(v)
			}
		}
		b.WriteString(strings.Join(parts, " "))
		b.WriteByte('\n')
	}
	return b.String()
}
