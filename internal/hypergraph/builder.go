package hypergraph

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/bitset"
)

// Builder unifies every hypergraph construction route — node-name edges,
// raw id edges over a declared universe, and the Parse text format — behind
// one accumulator. New, FromIDs, and Parse are thin wrappers over it.
//
// A builder is either in name mode (Edge, NamedEdge, Text) or in id mode
// (UniverseSize, EdgeIDs); mixing the two is reported by Build. Methods
// chain and record the first error, so construction code reads linearly:
//
//	h, err := hypergraph.NewBuilder().
//		NamedEdge("R1", "A", "B", "C").
//		Edge("C", "D", "E").
//		Build()
//
// Every edge, in either mode, is a run of ids in one flat slice. Name mode
// has one interner: every node name, from Edge, NamedEdge or Text, is
// looked up in one map and given a provisional id on first sight. Build
// sorts the distinct names once, remaps the runs to ranks, and hands the
// map on as the hypergraph's name index. Names are kept as given, so those
// read by Text are substrings of the text. Either way, Build sorts and
// deduplicates each run in a copy of the flat slice and compacts the runs,
// and the copy becomes the hypergraph's member list.
//
// Builders are not safe for concurrent use; the built Hypergraph is.
type Builder struct {
	universe  int            // declared id universe; < 0 when undeclared
	byID      bool           // id mode: a universe or an id edge was given
	index     map[string]int // name mode: name -> provisional id; nil once Build hands it on
	names     []string       // name mode: provisional id -> name, in order of first sight
	flat      []int32        // every edge's ids (provisional ones in name mode), edge after edge
	ends      []int          // the end of each edge's run in flat
	edgeNames []string       // name mode: per-edge names, aligned with edges
	named     bool           // some edge carries a nonempty name
	err       error          // first recorded error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{universe: -1}
}

// fail records the first error and keeps the chain usable.
func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// UniverseSize declares the id universe {0, ..., n-1} for EdgeIDs edges and
// switches the builder to id mode.
func (b *Builder) UniverseSize(n int) *Builder {
	if !b.byID && len(b.ends) > 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: cannot mix id universe with name edges"))
	}
	if n < 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: negative universe size %d", n))
	}
	b.universe, b.byID = n, true
	return b
}

// Edge appends an unnamed edge given as node names.
func (b *Builder) Edge(nodes ...string) *Builder {
	return b.NamedEdge("", nodes...)
}

// NamedEdge appends an edge given as node names, recording an optional edge
// name ("" for unnamed) retrievable from EdgeNames after Build.
func (b *Builder) NamedEdge(name string, nodes ...string) *Builder {
	if b.byID {
		return b.fail(errMixNames)
	}
	for _, n := range nodes {
		b.intern(n)
	}
	b.endEdge(name)
	return b
}

// errMixNames reports a name edge added to an id-mode builder.
var errMixNames = fmt.Errorf("hypergraph: Builder: cannot mix name edges with id edges")

// intern appends name's provisional id to the current edge's run, giving
// the name the next id on first sight.
func (b *Builder) intern(name string) {
	index := b.nameIndex()
	id, ok := index[name]
	if !ok {
		id = len(b.names)
		index[name] = id
		b.names = append(b.names, name)
	}
	b.flat = append(b.flat, int32(id))
}

// nameIndex returns the interning map, rebuilding it from names when Build
// has handed the previous one on.
func (b *Builder) nameIndex() map[string]int {
	if b.index == nil {
		b.index = make(map[string]int, len(b.names))
		for i, n := range b.names {
			b.index[n] = i
		}
	}
	return b.index
}

// endEdge closes the run of ids interned since the previous edge as one
// edge named name.
func (b *Builder) endEdge(name string) {
	b.ends = append(b.ends, len(b.flat))
	b.edgeNames = append(b.edgeNames, name)
	if name != "" {
		b.named = true
	}
}

// EdgeIDs appends an edge given as node ids over the declared universe and
// switches the builder to id mode. The ids are copied.
func (b *Builder) EdgeIDs(ids ...int32) *Builder {
	if !b.byID && len(b.ends) > 0 {
		return b.fail(fmt.Errorf("hypergraph: Builder: cannot mix id edges with name edges"))
	}
	b.byID = true
	b.flat = append(b.flat, ids...)
	b.ends = append(b.ends, len(b.flat))
	return b
}

// Text appends every edge of the Parse text format: one edge per line,
// nodes separated by whitespace or commas, optional "name:" prefixes, '#'
// comments. Syntax errors are reported by Build as *ErrParse with 1-based
// line and column.
//
// The text is read once, line by line, and each node is interned as it is
// met. A line is trimmed as strings.TrimSpace trims it and split as
// strings.FieldsFunc splits on unicode.IsSpace or ',': bytes below 0x80
// are classified by table, and a byte at or above it is decoded as UTF-8
// where it occurs.
func (b *Builder) Text(text string) *Builder {
	for lineNo := 1; text != ""; lineNo++ {
		raw := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			raw, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if !b.textLine(raw, lineNo) {
			break
		}
	}
	return b
}

// textLine appends the edge on one line of text, if any, and reports false
// once an error is recorded.
func (b *Builder) textLine(raw string, lineNo int) bool {
	line := strings.TrimSpace(raw)
	if line == "" || line[0] == '#' {
		return true
	}
	name := ""
	if i := strings.IndexByte(line, ':'); i >= 0 {
		name, line = strings.TrimSpace(line[:i]), line[i+1:]
		if name == "" {
			b.fail(parseErrorAt(raw, lineNo, "empty edge name"))
			return false
		}
	}
	start := len(b.flat)
	for i := 0; i < len(line); {
		w, sep := classify(line, i)
		if sep {
			i += w
			continue
		}
		j := i + w
		for j < len(line) {
			if w, sep = classify(line, j); sep {
				break
			}
			j += w
		}
		b.intern(line[i:j])
		i = j
	}
	if len(b.flat) == start {
		b.fail(parseErrorAt(raw, lineNo, "edge with no nodes"))
		return false
	}
	// Checked after the line's own errors, which are reported first.
	if b.byID {
		b.flat = b.flat[:start]
		b.fail(errMixNames)
		return false
	}
	b.endEdge(name)
	return true
}

// asciiSep marks the bytes below 0x80 that separate nodes: commas and the
// ASCII white space of unicode.IsSpace.
var asciiSep = [utf8.RuneSelf]bool{',': true, ' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// classify returns the width of the byte or UTF-8 sequence at s[i], and
// whether it separates nodes. An invalid sequence is one byte wide and
// never a separator, as in strings.FieldsFunc.
func classify(s string, i int) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		return 1, asciiSep[c]
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return w, unicode.IsSpace(r)
}

// parseErrorAt builds the *ErrParse for a line whose column is that of its
// first byte other than a space or a tab.
func parseErrorAt(raw string, lineNo int, msg string) *ErrParse {
	return &ErrParse{Line: lineNo, Col: 1 + len(raw) - len(strings.TrimLeft(raw, " \t")), Msg: msg}
}

// EdgeNames returns the recorded per-edge names, aligned with edge order
// ("" for unnamed edges), or nil when no edge was named.
func (b *Builder) EdgeNames() []string {
	if !b.named {
		return nil
	}
	return append([]string(nil), b.edgeNames...)
}

// Build assembles the hypergraph. Name-mode universes are the sorted union
// of all names; id-mode universes are UniverseSize (or 1 + the largest id
// seen when undeclared). The first recorded error — mode mixing, parse
// errors, ids out of universe — is returned instead.
func (b *Builder) Build() (*Hypergraph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.byID {
		return b.buildIDs()
	}
	return b.buildNames(), nil
}

// MustBuild is Build panicking on error, for wrappers whose inputs are
// structurally valid by construction.
func (b *Builder) MustBuild() *Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// buildNames sorts the distinct names once and lays every edge's run down
// remapped from provisional ids to ranks. The interning map becomes the
// hypergraph's name index, its values rewritten to ranks, so the builder
// rebuilds its own on reuse.
func (b *Builder) buildNames() *Hypergraph {
	index := b.nameIndex()
	b.index = nil
	n := len(b.names)
	names := make([]string, n) // never nil: a name-built hypergraph keeps name mode
	copy(names, b.names)
	slices.Sort(names)
	rank := make([]int32, n)
	for i, name := range names {
		rank[index[name]] = int32(i)
		index[name] = i
	}
	ids := make([]int32, len(b.flat))
	for k, id := range b.flat {
		ids[k] = rank[id]
	}
	members, off := compactRuns(ids, b.ends)
	return &Hypergraph{names: names, index: index, n: n, nodeSet: bitset.Full(n), members: members, memberOff: off}
}

// buildIDs assembles an id-universe hypergraph (synthetic "N<id>" names)
// from a copy of the runs.
func (b *Builder) buildIDs() (*Hypergraph, error) {
	n := b.universe
	if n < 0 && len(b.flat) > 0 {
		n = int(slices.Max(b.flat)) + 1
	}
	n = max(n, 0)
	for _, id := range b.flat {
		if id < 0 || int(id) >= n {
			return nil, fmt.Errorf("hypergraph: Builder: id %d out of universe [0, %d)", id, n)
		}
	}
	members, off := compactRuns(slices.Clone(b.flat), b.ends)
	return &Hypergraph{n: n, nodeSet: bitset.Full(n), members: members, memberOff: off}, nil
}

// compactRuns sorts and deduplicates in place each run of ids, the runs
// ending at ends, and moves them together to the front: the member list
// and offsets of the CSR layout.
func compactRuns(ids []int32, ends []int) (members, off []int32) {
	off = make([]int32, len(ends)+1)
	k, start := 0, 0
	for e, end := range ends {
		run := ids[start:end]
		slices.Sort(run)
		k += copy(ids[k:], slices.Compact(run))
		off[e+1] = int32(k)
		start = end
	}
	return ids[:k:k], off
}
