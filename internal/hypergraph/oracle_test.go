package hypergraph

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/bitset"
)

// oracleParse is Parse as it was before the one-pass tokenizer: the text
// split into lines, each trimmed and split with strings.FieldsFunc into a
// []string per edge, then the names interned through a seen map, one sort
// of the distinct names, a second name→id map and one sort per edge. It is
// the differential oracle for Parse and Builder's name mode.
func oracleParse(text string) (*Hypergraph, []string, error) {
	var edges [][]string
	var edgeNames []string
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		col := 1 + len(raw) - len(strings.TrimLeft(raw, " \t"))
		name := ""
		if i := strings.Index(line, ":"); i >= 0 {
			name = strings.TrimSpace(line[:i])
			line = line[i+1:]
			if name == "" {
				return nil, nil, &ErrParse{Line: lineNo + 1, Col: col, Msg: "empty edge name"}
			}
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return unicode.IsSpace(r) || r == ','
		})
		if len(fields) == 0 {
			return nil, nil, &ErrParse{Line: lineNo + 1, Col: col, Msg: "edge with no nodes"}
		}
		edges = append(edges, fields)
		edgeNames = append(edgeNames, name)
	}
	if len(edges) == 0 {
		return nil, nil, &ErrParse{Line: 1, Col: 1, Msg: "no edges in input"}
	}
	return oracleBuildNames(edges), edgeNames, nil
}

// oracleBuildNames is the name-mode Build before the single interner.
func oracleBuildNames(edges [][]string) *Hypergraph {
	seen := map[string]bool{}
	for _, e := range edges {
		for _, n := range e {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	h := &Hypergraph{
		names:   names,
		index:   make(map[string]int, len(names)),
		n:       len(names),
		nodeSet: bitset.Full(len(names)),
	}
	for i, n := range names {
		h.index[n] = i
	}
	h.memberOff = []int32{0}
	for _, e := range edges {
		ids := make([]int32, 0, len(e))
		for _, n := range e {
			ids = append(ids, int32(h.index[n]))
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for i, id := range ids {
			if i == 0 || ids[i-1] != id {
				h.members = append(h.members, id)
			}
		}
		h.memberOff = append(h.memberOff, int32(len(h.members)))
	}
	return h
}

// sameAsOracle fails t unless got and want are the same hypergraph: node
// names in id order, each edge's nodes in edge order and its member ids,
// the name index and both fingerprints.
func sameAsOracle(t *testing.T, got, want *Hypergraph) {
	t.Helper()
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("nodes %q, oracle %q", got.Nodes(), want.Nodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d edges, oracle %d", got.NumEdges(), want.NumEdges())
	}
	for i := 0; i < got.NumEdges(); i++ {
		if g, w := got.EdgeNodes(i), want.EdgeNodes(i); !reflect.DeepEqual(g, w) {
			t.Fatalf("edge %d %q, oracle %q", i, g, w)
		}
		if g, w := got.Members(i), want.Members(i); !slices.Equal(g, w) {
			t.Fatalf("edge %d members %v, oracle %v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.index, want.index) {
		t.Fatalf("name index %v, oracle %v", got.index, want.index)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %s, oracle %s", got.Fingerprint(), want.Fingerprint())
	}
	if got.Fingerprint128() != want.Fingerprint128() {
		t.Fatalf("fingerprint128 %v, oracle %v", got.Fingerprint128(), want.Fingerprint128())
	}
}

// parseOracleSeeds are texts on the edges of the format: Unicode and ASCII
// spaces other than ' ', invalid UTF-8, CRLF, comments after white space,
// name prefixes, empty names and edges, and repeated names.
var parseOracleSeeds = []string{
	"R1: A B C\nR2: C D E\nA E F\nA, C, E\n",
	"a b c\u0085d\n",
	" A B \n \n\u0085# note\nx y\n",
	"A \xff B\n\xc2 C\n\xe2\x80 D\xe2\x80\x83E\n",
	"# Fig. 1\r\nR1: A,B,C\r\nR2: C D E\r\nA E F\r\n A C E \r\n",
	"A\vB\fC\n\v\f\n\t\v D\n",
	"  # comment\n\t# tab comment\n A B\n",
	"name:A B\n name : C\nx:y:z w\n a b: c\n#c: d\nn1:,A\n",
	"A B\n  : C D\n",
	"A B\n  ,,,\n",
	"A B\nR: ,, \n",
	"# only a comment\n",
	"",
	"dup dup dup\ndup\nA dup A\n",
	"\t  :x\n",
	"\xc2\xa0 : x\n",
	"A\n\n\nB C\n\n",
}

// FuzzParseMatchesOracle differences Parse against oracleParse: the same
// hypergraph (see sameAsOracle) and edge names, or the same *ErrParse. Its
// seeds are parseOracleSeeds and a schema of 1,500 edges over more than
// 1,024 names, whose short edges are joined by a 60-node edge every 100th
// line.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, text := range parseOracleSeeds {
		f.Add(text)
	}
	var big strings.Builder
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&big, "k%d m%d, n%d", i, i%26, i%7)
		if i%100 == 0 {
			for j := 0; j < 60; j++ {
				fmt.Fprintf(&big, " k%d", (i+j*37)%1500)
			}
		}
		big.WriteString("\n")
	}
	f.Add(big.String())
	f.Fuzz(func(t *testing.T, text string) {
		h, names, err := Parse(text)
		wantH, wantNames, wantErr := oracleParse(text)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q) err %v, oracle err %v", text, err, wantErr)
		}
		if err != nil {
			var pe, wantPE *ErrParse
			if !errors.As(err, &pe) || !errors.As(wantErr, &wantPE) || *pe != *wantPE {
				t.Fatalf("Parse(%q) err %#v, oracle %#v", text, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(names, wantNames) {
			t.Fatalf("Parse(%q) edge names %q, oracle %q", text, names, wantNames)
		}
		sameAsOracle(t, h, wantH)
	})
}

// TestBuilderNamesMatchOracle: edges given to Edge and NamedEdge, mixed
// with Text, build what the oracle builds from the same name lists, and a
// builder reused after Build interns new names into a fresh map without
// disturbing the hypergraph it already built.
func TestBuilderNamesMatchOracle(t *testing.T) {
	edges := [][]string{{"C", "B", "C"}, {}, {"A"}, {"Z", "B"}, {"B", "Z"}}
	b := NewBuilder()
	for _, e := range edges {
		b.Edge(e...)
	}
	b.Text("q p\n")
	first, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	all := append(edges, []string{"q", "p"})
	sameAsOracle(t, first, oracleBuildNames(all))

	again, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameAsOracle(t, again, oracleBuildNames(all))

	b.Edge("AA", "C")
	grown, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameAsOracle(t, grown, oracleBuildNames(append(all, []string{"AA", "C"})))
	sameAsOracle(t, first, oracleBuildNames(all))
}
