// Package tableau implements the tableaux and tableau reduction of
// Maier & Ullman §3, following the tableau formalism of Aho, Sagiv and
// Ullman.
//
// The tableau of a hypergraph H with sacred node set X has one column per
// node and one row per edge. Column c's *special symbol* appears exactly in
// the rows whose edge contains c; special symbols of sacred nodes are
// *distinguished* (they appear in the summary). Every other cell holds a
// symbol unique to it.
//
// A *row mapping* h sends rows to a target subset of rows such that
//
//	(1) h is the identity on the target subset;
//	(2) if a symbol appears in rows r₁ and r₂, then h(r₁) and h(r₂) agree on
//	    that column (only special symbols can repeat, so this constrains the
//	    rows of each multiply-occurring column);
//	(3) a distinguished symbol in row r also appears (same column) in h(r).
//
// Row mappings form a finite Church–Rosser system, so each tableau has a
// unique minimal target subset, computed here by greedy row elimination.
// TR(H, X) reads the minimal rows back as partial edges: a non-sacred node
// whose special symbol survives in only one minimal row is dropped.
package tableau

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// Tableau is the tableau of a hypergraph with a sacred node set. It is
// immutable after construction.
type Tableau struct {
	H      *hypergraph.Hypergraph
	Sacred bitset.Set
	// rows[r] is edge r of H: the columns of row r's special symbols.
	rows []bitset.Set
	// occ[c] is the number of rows whose edge contains node c.
	occ map[int]int
	// multi is the set of nodes whose special symbol occurs in >= 2 rows.
	multi bitset.Set
}

// New builds the tableau for h with the given sacred nodes. Sacred nodes
// outside h's node set are ignored.
func New(h *hypergraph.Hypergraph, sacred bitset.Set) *Tableau {
	t := &Tableau{
		H:      h,
		Sacred: sacred.And(h.NodeSet()),
		rows:   h.Edges(),
		occ:    map[int]int{},
	}
	for _, e := range t.rows {
		e.ForEach(func(c int) { t.occ[c]++ })
	}
	for c, n := range t.occ {
		if n >= 2 {
			t.multi.Add(c)
		}
	}
	return t
}

// NumRows returns the number of rows (= edges of H).
func (t *Tableau) NumRows() int { return t.H.NumEdges() }

// RowMapping assigns to each row (by edge index) its image row. A value of
// -1 marks rows outside the mapping's domain.
type RowMapping []int

// Validate checks the three row-mapping conditions for the mapping restricted
// to the given domain rows; target rows are those r with m[r] == r. It
// returns a descriptive error on the first violation.
func (t *Tableau) Validate(m RowMapping, domain []int) error {
	inDomain := map[int]bool{}
	for _, r := range domain {
		inDomain[r] = true
	}
	target := map[int]bool{}
	for _, r := range domain {
		if m[r] == r {
			target[r] = true
		}
	}
	for _, r := range domain {
		img := m[r]
		if img < 0 || img >= t.NumRows() || !inDomain[img] {
			return fmt.Errorf("tableau: row %d maps outside the domain", r)
		}
		if !target[img] {
			return fmt.Errorf("tableau: row %d maps to non-target row %d", r, img)
		}
		// Condition (3): distinguished symbols are preserved.
		sac := t.rows[r].And(t.Sacred)
		if !sac.IsSubset(t.rows[img]) {
			return fmt.Errorf("tableau: row %d drops distinguished symbol(s) %v",
				r, t.H.NodeNames(sac.AndNot(t.rows[img])))
		}
	}
	// Condition (2) per multiply-occurring column, over domain rows.
	var err error
	t.multi.ForEach(func(c int) {
		if err != nil {
			return
		}
		var rows []int
		for _, r := range domain {
			if t.rows[r].Contains(c) {
				rows = append(rows, r)
			}
		}
		if len(rows) < 2 {
			return
		}
		allSame, allContain := true, true
		for _, r := range rows {
			if m[r] != m[rows[0]] {
				allSame = false
			}
			if !t.rows[m[r]].Contains(c) {
				allContain = false
			}
		}
		if !allSame && !allContain {
			err = fmt.Errorf("tableau: column %s images neither agree on one row nor all keep the symbol", t.H.NodeName(c))
		}
	})
	return err
}

// FindMapping searches for a row mapping from the domain rows onto the
// target rows (target ⊆ domain) satisfying all three conditions, i.e. with
// the target rows pinned to themselves. It returns the mapping and true, or
// nil and false if none exists.
func (t *Tableau) FindMapping(domain, target []int) (RowMapping, bool) {
	return t.findHom(domain, target, true)
}

// FindHom searches for a homomorphism from the domain rows into the target
// rows satisfying conditions (2) and (3) but *not* the identity condition
// (1): target rows may move within the target. Row removal during
// minimization needs this generality — folding several rows at once is
// sometimes the only way to shrink (e.g. a triangle with no sacred nodes).
func (t *Tableau) FindHom(domain, target []int) (RowMapping, bool) {
	return t.findHom(domain, target, false)
}

func (t *Tableau) findHom(domain, target []int, pinTarget bool) (RowMapping, bool) {
	inTarget := map[int]bool{}
	for _, r := range target {
		inTarget[r] = true
	}
	m := make(RowMapping, t.NumRows())
	for i := range m {
		m[i] = -1
	}
	var free []int
	for _, r := range domain {
		if pinTarget && inTarget[r] {
			m[r] = r
		} else {
			free = append(free, r)
		}
	}
	// colRows[c] = domain rows containing node c, for multi columns.
	colRows := map[int][]int{}
	t.multi.ForEach(func(c int) {
		for _, r := range domain {
			if t.rows[r].Contains(c) {
				colRows[c] = append(colRows[c], r)
			}
		}
	})
	// Candidate images per free row: targets keeping the row's
	// distinguished symbols (condition 3).
	cands := make(map[int][]int, len(free))
	for _, r := range free {
		sac := t.rows[r].And(t.Sacred)
		for _, tgt := range target {
			if sac.IsSubset(t.rows[tgt]) {
				cands[r] = append(cands[r], tgt)
			}
		}
		if len(cands[r]) == 0 {
			return nil, false
		}
	}
	// Most-constrained-first static ordering keeps the search shallow.
	sort.SliceStable(free, func(i, j int) bool {
		return len(cands[free[i]]) < len(cands[free[j]])
	})
	s := &homSearch{t: t, m: m, colRows: colRows, cands: cands}
	if !s.solve(free, 0) {
		return nil, false
	}
	return m, true
}

// homSearch is the backtracking state for findHom: assignment with
// condition-(2) unit propagation (an image lacking a shared symbol forces
// every row of that column onto the same image).
type homSearch struct {
	t       *Tableau
	m       RowMapping
	colRows map[int][]int
	cands   map[int][]int
}

func (s *homSearch) solve(free []int, i int) bool {
	for i < len(free) && s.m[free[i]] >= 0 {
		i++ // already forced by propagation
	}
	if i == len(free) {
		return true
	}
	r := free[i]
	for _, cand := range s.cands[r] {
		trail, ok := s.propagate(r, cand)
		if ok && s.solve(free, i+1) {
			return true
		}
		for _, x := range trail {
			s.m[x] = -1
		}
	}
	return false
}

// propagate assigns m[r] = cand and closes the condition-(2) consequences,
// returning the assignments made (for undo) and whether the state stays
// consistent. On failure the trail is already unwound.
func (s *homSearch) propagate(r, cand int) ([]int, bool) {
	t := s.t
	trail := []int{r}
	s.m[r] = cand
	queue := []int{r}
	fail := func() ([]int, bool) {
		for _, x := range trail {
			s.m[x] = -1
		}
		return nil, false
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		img := s.m[x]
		imgEdge := t.rows[img]
		conflict := false
		t.multi.And(t.rows[x]).ForEach(func(c int) {
			if conflict {
				return
			}
			rows := s.colRows[c]
			if len(rows) < 2 {
				return
			}
			if imgEdge.Contains(c) {
				// Consistent unless some other row of the column already
				// maps to a c-less image different from img.
				for _, rr := range rows {
					o := s.m[rr]
					if o >= 0 && o != img && !t.rows[o].Contains(c) {
						conflict = true
						return
					}
				}
				return
			}
			// img lacks c: every row of this column must share img.
			for _, rr := range rows {
				switch o := s.m[rr]; {
				case o == img:
					// already agreed
				case o >= 0:
					conflict = true
					return
				default:
					// Forced assignment; must respect condition (3).
					if !t.rows[rr].And(t.Sacred).IsSubset(imgEdge) {
						conflict = true
						return
					}
					// Forced rows must be assignable at all (pinned target
					// rows have m set already, so rr is free here).
					s.m[rr] = img
					trail = append(trail, rr)
					queue = append(queue, rr)
				}
			}
		})
		if conflict {
			return fail()
		}
	}
	return trail, true
}

// Minimization is the outcome of reducing a tableau: the unique minimal row
// subset (up to symbol renaming) together with the composed row mapping from
// all original rows onto it.
type Minimization struct {
	Tableau *Tableau
	// Rows is the sorted list of surviving row indices (edge ids of H).
	Rows []int
	// Mapping sends every original row to its image among Rows.
	Mapping RowMapping
	// Stats records how the minimization proceeded.
	Stats Stats
}

// Stats instruments a minimization run, supporting the fast-path ablation
// benchmarks: how many rows fell to the cheap pinned search versus the
// general fold search, and how many removal probes failed.
type Stats struct {
	// PinnedRemovals counts rows removed with all other rows held fixed.
	PinnedRemovals int
	// GeneralRemovals counts rows that needed a multi-row fold.
	GeneralRemovals int
	// FailedProbes counts removal attempts with no homomorphism at all.
	FailedProbes int
}

// Options tunes Minimize. The zero value is the production configuration.
type Options struct {
	// DisableFastPath skips the pinned search and always runs the general
	// fold search. Results are identical; only cost differs (ablation).
	DisableFastPath bool
}

// Minimize computes the minimal target subset by greedy single-row
// elimination in canonical (ascending) order. A row r is removable when a
// homomorphism (conditions (2) and (3)) exists from the current rows into
// the current rows minus r; general homomorphisms are required because some
// shrinking steps must move several rows at once. Because row mappings form
// a finite Church–Rosser system the greedy order reaches the unique core,
// and the theory guarantees a condition-(1) row mapping from the full
// original row set onto that core, which Minimize recovers at the end.
func (t *Tableau) Minimize() *Minimization {
	return t.MinimizeOpt(Options{})
}

// MinimizeOpt is Minimize with tuning options; see Options.
func (t *Tableau) MinimizeOpt(opts Options) *Minimization {
	var stats Stats
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	for {
		removed := false
		for k := 0; k < len(rows); k++ {
			candidate := rows[k]
			rest := make([]int, 0, len(rows)-1)
			for _, r := range rows {
				if r != candidate {
					rest = append(rest, r)
				}
			}
			if len(rest) == 0 {
				break
			}
			// Fast path: everything else pinned. Fallback: general fold.
			ok := false
			if !opts.DisableFastPath {
				_, ok = t.FindMapping(rows, rest)
				if ok {
					stats.PinnedRemovals++
				}
			}
			if !ok {
				_, ok = t.FindHom(rows, rest)
				if ok {
					stats.GeneralRemovals++
				}
			}
			if !ok {
				stats.FailedProbes++
				continue
			}
			rows = rest
			removed = true
			k--
		}
		if !removed {
			break
		}
	}
	sort.Ints(rows)
	all := make([]int, t.NumRows())
	for i := range all {
		all[i] = i
	}
	total, ok := t.FindMapping(all, rows)
	if !ok {
		panic("tableau: no pinned row mapping onto the minimal core — minimization bug")
	}
	return &Minimization{Tableau: t, Rows: rows, Mapping: total, Stats: stats}
}

// KeptNodes returns the node set retained by TR: sacred nodes occurring in
// some minimal row, plus non-sacred nodes occurring in at least two minimal
// rows.
func (mn *Minimization) KeptNodes() bitset.Set {
	t := mn.Tableau
	count := map[int]int{}
	for _, r := range mn.Rows {
		t.rows[r].ForEach(func(c int) { count[c]++ })
	}
	var kept bitset.Set
	for c, n := range count {
		if t.Sacred.Contains(c) || n >= 2 {
			kept.Add(c)
		}
	}
	return kept
}

// Hypergraph assembles TR(H, X): the partial edges of the minimal rows
// restricted to the kept nodes. Per the paper, the result is always reduced;
// Hypergraph verifies that and panics otherwise (it would indicate a
// minimization bug, not a user error).
func (mn *Minimization) Hypergraph() *hypergraph.Hypergraph {
	t := mn.Tableau
	kept := mn.KeptNodes()
	edges := make([]bitset.Set, 0, len(mn.Rows))
	for _, r := range mn.Rows {
		edges = append(edges, t.rows[r].And(kept))
	}
	out := t.H.Derive(kept, edges)
	if !out.IsReduced() {
		panic(fmt.Sprintf("tableau: TR produced an unreduced hypergraph %v — minimization bug", out))
	}
	return out
}

// Reduce runs the full tableau reduction of h with the given sacred nodes
// and returns the minimization (rows + mapping).
func Reduce(h *hypergraph.Hypergraph, sacred bitset.Set) *Minimization {
	return New(h, sacred).Minimize()
}

// String renders the reduced tableau in the style of the paper's Figure 3:
// the summary and the minimal rows, showing a special symbol only where it
// survives in the reduced tableau (symbols occurring once and not
// distinguished render as blanks, matching the paper's convention).
func (mn *Minimization) String() string {
	t := mn.Tableau
	nodes := t.H.NodeSet().Elems()
	kept := mn.KeptNodes()
	width := make([]int, len(nodes))
	name := make([]string, len(nodes))
	for i, c := range nodes {
		name[i] = t.H.NodeName(c)
		width[i] = len(name[i])
	}
	var b strings.Builder
	for i := range nodes {
		fmt.Fprintf(&b, "%-*s ", width[i], name[i])
	}
	b.WriteString("\n")
	for i, c := range nodes {
		s := ""
		if t.Sacred.Contains(c) {
			s = strings.ToLower(name[i])
		}
		fmt.Fprintf(&b, "%-*s ", width[i], s)
	}
	b.WriteString("  (summary)\n")
	for _, r := range mn.Rows {
		for i, c := range nodes {
			s := ""
			if t.rows[r].Contains(c) && kept.Contains(c) {
				s = strings.ToLower(name[i])
			}
			fmt.Fprintf(&b, "%-*s ", width[i], s)
		}
		fmt.Fprintf(&b, "  (row %d)\n", r)
	}
	return b.String()
}

// TR returns the hypergraph TR(h, sacred): the canonical connection of the
// sacred nodes (Maier & Ullman §5 call this CC(X)).
func TR(h *hypergraph.Hypergraph, sacred bitset.Set) *hypergraph.Hypergraph {
	return Reduce(h, sacred).Hypergraph()
}

// String renders the tableau in the style of the paper's Figure 2: a summary
// line holding the distinguished symbols, then one line per row with the
// special symbols of its edge. Special symbols are the lower-cased node
// names; blanks (unique symbols) are left empty.
func (t *Tableau) String() string {
	nodes := t.H.NodeSet().Elems()
	width := make([]int, len(nodes))
	name := make([]string, len(nodes))
	for i, c := range nodes {
		name[i] = t.H.NodeName(c)
		width[i] = len(name[i])
	}
	var b strings.Builder
	// Header: column names.
	for i := range nodes {
		fmt.Fprintf(&b, "%-*s ", width[i], name[i])
	}
	b.WriteString("\n")
	// Summary: distinguished symbols.
	for i, c := range nodes {
		s := ""
		if t.Sacred.Contains(c) {
			s = strings.ToLower(name[i])
		}
		fmt.Fprintf(&b, "%-*s ", width[i], s)
	}
	b.WriteString("  (summary)\n")
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range nodes {
			s := ""
			if t.rows[r].Contains(c) {
				s = strings.ToLower(name[i])
			}
			fmt.Fprintf(&b, "%-*s ", width[i], s)
		}
		fmt.Fprintf(&b, "  (edge {%s})\n", strings.Join(t.H.EdgeNodes(r), " "))
	}
	return b.String()
}

// SpecialOccurrences returns how many rows contain node c's special symbol.
func (t *Tableau) SpecialOccurrences(c int) int { return t.occ[c] }

// IsDistinguished reports whether node c's special symbol is distinguished.
func (t *Tableau) IsDistinguished(c int) bool { return t.Sacred.Contains(c) }
