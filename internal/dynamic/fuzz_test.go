package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
)

// FuzzEditScript interprets the fuzz input as an edit script — two bytes
// per op: an opcode (add / remove / rename) and an argument selecting
// nodes or edges — and checks after every op that the snapshot matches a
// name Builder over the alive edges and that the workspace's incremental
// verdict matches a from-scratch analysis of the snapshot,
// with a full forest/classification cross-check at the end of the script.
func FuzzEditScript(f *testing.F) {
	f.Add([]byte{0, 0x09, 0, 0x12, 2, 0x00})                   // add, add, remove
	f.Add([]byte{0, 0x3f, 1, 0x24, 3, 0x01, 0, 0x09})          // adds, rename, re-add
	f.Add([]byte{0, 0x09, 0, 0x0a, 0, 0x53, 2, 0x01, 2, 0x00}) // build then shatter
	f.Add([]byte{1, 0x08, 1, 0x11, 2, 0x01})                   // {f0,f1}, the ear {f1,f2}, drop the ear
	f.Fuzz(func(t *testing.T, script []byte) {
		pool := make([]string, 8)
		for i := range pool {
			pool[i] = fmt.Sprintf("f%d", i)
		}
		ws := New()
		var alive []int
		renames := 0
		const maxOps = 64 // bounds the per-op scratch checks
		for i := 0; i+1 < len(script) && i/2 < maxOps; i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 4 {
			case 0, 1: // add an edge of arity 1..3 picked from the arg bits
				nodes := []string{pool[arg&7]}
				if op%4 == 1 || arg&8 != 0 {
					nodes = append(nodes, pool[(arg>>3)&7])
				}
				if arg&0x40 != 0 {
					nodes = append(nodes, pool[(arg>>1)&7])
				}
				id, err := ws.AddEdge(nodes...)
				if err != nil {
					t.Fatalf("AddEdge(%v): %v", nodes, err)
				}
				alive = append(alive, id)
			case 2: // remove an alive edge
				if len(alive) == 0 {
					continue
				}
				j := int(arg) % len(alive)
				if err := ws.RemoveEdge(alive[j]); err != nil {
					t.Fatalf("RemoveEdge(%d): %v", alive[j], err)
				}
				alive[j] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			case 3: // rename a current node to a fresh name
				nodes := ws.Snapshot().Nodes()
				if len(nodes) == 0 {
					continue
				}
				old := nodes[int(arg)%len(nodes)]
				fresh := fmt.Sprintf("fr%d", renames)
				renames++
				if err := ws.RenameNode(old, fresh); err != nil {
					t.Fatalf("RenameNode(%s, %s): %v", old, fresh, err)
				}
			}
			checkSnapshot(t, ws, i/2)
			snap := ws.Snapshot()
			if got, want := ws.Analysis().Verdict(), analysis.New(snap).Verdict(); got != want {
				t.Fatalf("verdict %v != from-scratch %v on %v", got, want, snap)
			}
		}
		// Full cross-check of the final state: forest and RIP.
		a := ws.Analysis()
		if jt, err := a.JoinTree(); err == nil {
			if verr := jt.Verify(); verr != nil {
				t.Fatalf("final forest violates RIP on %v: %v", ws.Snapshot(), verr)
			}
		} else if a.Verdict() {
			t.Fatalf("acyclic final state but JoinTree failed: %v", err)
		}
	})
}
