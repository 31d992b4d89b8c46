package hypergraph_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// schemaMixTexts returns one schema of each family of perfbench's
// schema-mix workload, at its size (about 500 edges), with every node name
// relabelled by a prefix as the workload's memo misses are:
//   - alpha: gen.RandomAcyclic plus a triangle planted inside one edge,
//     about 1,500 names, so its edges are sparse;
//   - gamma: gen.GammaAcyclic over 400 names, so its edges are dense;
//   - cyclic: gen.Random over 350 names with arities 2 to 4.
func schemaMixTexts() map[string]string {
	rng := rand.New(rand.NewSource(7))
	alpha := gen.RandomAcyclic(rng, gen.RandomSpec{Edges: 497, MinArity: 3, MaxArity: 5}).EdgeLists()
	x, y, z := alpha[0][0], alpha[0][1], alpha[0][2]
	alpha = append(alpha, []string{x, y}, []string{y, z}, []string{x, z})
	gamma := gen.GammaAcyclic(rng, 500, 400).EdgeLists()
	cyclic := gen.Random(rng, gen.RandomSpec{Nodes: 350, Edges: 500, MinArity: 2, MaxArity: 4}).EdgeLists()
	relabel := func(edges [][]string) string {
		var b strings.Builder
		for _, e := range edges {
			for j, n := range e {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString("r7_")
				b.WriteString(n)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	return map[string]string{"alpha": relabel(alpha), "gamma": relabel(gamma), "cyclic": relabel(cyclic)}
}

// BenchmarkParse is one schema-mix memo miss's parse, per family.
func BenchmarkParse(b *testing.B) {
	texts := schemaMixTexts()
	for _, family := range []string{"alpha", "gamma", "cyclic"} {
		text := texts[family]
		b.Run(family, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := hypergraph.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
