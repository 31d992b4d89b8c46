package main

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// paperOnly are the paper-reproduction packages: the exponential
// acyclicity testers, the Theorem 6.1 witness and tableau machinery, the
// chase, and the universal-relation database. They are the paper's
// artefacts and the test oracles of the fast paths, so no serving path may
// link them. relation is the one paper package the server still links:
// exec converts to and from relations for perfbench's replay
// (exec.FromRelations), and the converters leave with the replay.
var paperOnly = []string{"acyclic", "core", "tableau", "chase", "db"}

// TestServerDependencySet walks the non-test imports of this binary
// through the module's package directories and fails if any
// paper-reproduction package is among them.
func TestServerDependencySet(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	const module = "repro"
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module)))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				walk(imp)
			}
		}
	}
	walk(module + "/cmd/hgserved")

	var deps []string
	for p := range seen {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	for _, name := range paperOnly {
		if p := module + "/internal/" + name; seen[p] {
			t.Errorf("hgserved links %s; its dependencies are %v", p, deps)
		}
	}
}
