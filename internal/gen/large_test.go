package gen

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gyo"
	"repro/internal/hypergraph"
	"repro/internal/jointree"
	"repro/internal/mcs"
)

func TestAcyclicBlocksShapeAndVerdict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := AcyclicBlocks(rng, 300, 4, 32)
	if h.NumEdges() != 300 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if h.NumNodes() != 4*32 {
		t.Fatalf("nodes = %d", h.NumNodes())
	}
	if !h.IsConnected() {
		t.Fatal("blocks must be chained into one component")
	}
	if !gyo.IsAcyclic(h) {
		t.Fatal("AcyclicBlocks must be acyclic")
	}
	// Degenerate corner: minimum edge count, minimum block size.
	tiny := AcyclicBlocks(rng, 5, 3, 2)
	if tiny.NumEdges() != 5 || !gyo.IsAcyclic(tiny) {
		t.Fatalf("tiny blocks: edges=%d", tiny.NumEdges())
	}
}

func TestAcyclicBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for m < 2*blockCount-1")
		}
	}()
	AcyclicBlocks(rand.New(rand.NewSource(1)), 3, 3, 8)
}

// TestIDGeneratorsMatchNamedFamilies: the id-based generators must produce
// structurally identical hypergraphs to their name-interning twins (same
// edge count, same verdicts, same reduction behavior), with storage
// proportional to the total edge size, not the universe.
func TestIDGeneratorsMatchNamedFamilies(t *testing.T) {
	chain := AcyclicChainIDs(1000, 3, 1)
	named := AcyclicChain(1000, 3, 1)
	if chain.NumEdges() != named.NumEdges() || chain.NumNodes() != named.NumNodes() {
		t.Fatalf("chain shape: ids=%d/%d named=%d/%d",
			chain.NumEdges(), chain.NumNodes(), named.NumEdges(), named.NumNodes())
	}
	if !mcs.IsAcyclic(chain) || !gyo.IsAcyclic(chain) {
		t.Fatal("AcyclicChainIDs must be acyclic under both engines")
	}
	if !chain.IsConnected() {
		t.Fatal("chain must be connected")
	}
	if b := retainedBytesPerMember(func() *hypergraph.Hypergraph { return AcyclicChainIDs(1000, 3, 1) }); b > 8 {
		t.Fatalf("chain over a 1000+-node universe keeps %.1f bytes per member, want at most 8", b)
	}

	rng := rand.New(rand.NewSource(1))
	blocks := AcyclicBlocksIDs(rng, 300, 4, 32)
	if blocks.NumEdges() != 300 || blocks.NumNodes() != 4*32 {
		t.Fatalf("blocks shape: %d edges, %d nodes", blocks.NumEdges(), blocks.NumNodes())
	}
	if !mcs.IsAcyclic(blocks) || !blocks.IsConnected() {
		t.Fatal("AcyclicBlocksIDs must be acyclic and connected")
	}
	// Sub-range edges vanish under reduction; the block edges and the
	// two-node connectors (which span two blocks) survive.
	if r, want := blocks.Reduce(), 4+3; r.NumEdges() != want {
		t.Fatalf("blocks must reduce to %d edges, got %d", want, r.NumEdges())
	}

	raw := RandomRawIDs(rng, RandomSpec{Nodes: 50, Edges: 120, MinArity: 2, MaxArity: 5})
	if raw.NumEdges() != 120 {
		t.Fatalf("raw edges = %d", raw.NumEdges())
	}
	for i := 0; i < raw.NumEdges(); i++ {
		if l := len(raw.Members(i)); l < 2 || l > 5 {
			t.Fatalf("raw edge %d arity %d out of range", i, l)
		}
	}
}

// TestIDChainVerdictAndTreeAtScale: a 10⁵-edge unbounded-universe chain —
// infeasible under the dense representation (≈2.5 GB) — must test acyclic
// and yield a verifiable join tree in one pass.
func TestIDChainVerdictAndTreeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	h := AcyclicChainIDs(100_000, 3, 1)
	jt, ok := jointree.BuildMCS(h)
	if !ok {
		t.Fatal("chain must be acyclic")
	}
	if err := jt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRawShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := RandomRaw(rng, RandomSpec{Nodes: 50, Edges: 120, MinArity: 2, MaxArity: 5})
	if h.NumEdges() != 120 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	for i := 0; i < h.NumEdges(); i++ {
		if l := h.Edge(i).Len(); l < 2 || l > 5 {
			t.Fatalf("edge %d arity %d out of range", i, l)
		}
	}
	// Arity capped by the universe.
	small := RandomRaw(rng, RandomSpec{Nodes: 3, Edges: 10, MinArity: 2, MaxArity: 8})
	for i := 0; i < small.NumEdges(); i++ {
		if small.Edge(i).Len() > 3 {
			t.Fatal("arity must be capped at the node count")
		}
	}
}

// retainedBytesPerMember returns the live heap a hypergraph from build keeps
// after two collections, per edge member.
func retainedBytesPerMember(build func() *hypergraph.Hypergraph) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	members := 0
	for i := range h.NumEdges() {
		members += len(h.Members(i))
	}
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(members)
}
