package grouting_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keptUnused names the exported functions and methods under internal/ that
// no non-test code names but that stay, each with the reason it stays.
var keptUnused = map[string]string{
	"core.(*System).FailProcessor":    "public API: grouting.System is core.System, and topology.go documents it",
	"core.(*System).ReviveProcessor":  "public API: grouting.System is core.System, and topology.go documents it",
	"core.(*System).ReviveStorage":    "public API through grouting.System, the storage side of FailStorage",
	"core.(*System).Topology":         "public API through grouting.System: the current membership view",
	"core.(*System).LandmarkIndex":    "public API through grouting.System, beside Embedding",
	"gen.RMAT":                        "a fixture the tests of many packages build graphs with; a _test.go file cannot export across packages",
	"gen.ErdosRenyi":                  "a fixture the tests of many packages build graphs with; a _test.go file cannot export across packages",
	"gen.Grid":                        "a fixture the tests of many packages build graphs with; a _test.go file cannot export across packages",
	"gen.Ring":                        "a fixture the tests of many packages build graphs with; a _test.go file cannot export across packages",
	"rpc.(*Deployment).StorageAddrs":  "the root and chaos tests reach a loopback deployment's shards through it",
	"rpc.(*Deployment).JoinProcessor": "the re-registration a router restart on a loopback deployment is to reuse (ROADMAP item 16(a))",
	"rpc.(*remoteError).Unwrap":       "errors.Is and errors.As call it through the Unwrap interface",
	"kvstore.(*Store).Repair":         "the in-process side of the one repair planner (ROADMAP item 10(c))",
}

// TestNoExportedCodeOnlyTestsCall parses every non-test Go file of the
// repository — bench/, cmd/ and examples/ included, as callers — and fails on
// an exported function or method under internal/ whose name no non-test code
// names anywhere but its own declaration, unless keptUnused gives the reason
// it stays. Code only a test calls belongs in the tests. The check matches
// names, not types: a method is named when any call site, interface or
// method value anywhere names a method or function of that name. So it is
// blind to a function whose name another package's function shares: a Dial
// under internal/ that only tests call passes as long as the root package's
// Dial has callers.
func TestNoExportedCodeOnlyTestsCall(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]int{}
	declared := map[string]string{} // "pkg.Func" or "pkg.(Recv).Method" -> its name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fn.Name] = true
			if !fn.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			id := f.Name.Name + "."
			if fn.Recv != nil {
				id += "(" + types.ExprString(fn.Recv.List[0].Type) + ")."
			}
			declared[id+fn.Name.Name] = fn.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range slices.Sorted(maps.Keys(declared)) {
		_, kept := keptUnused[id]
		switch unused := named[declared[id]] == 0; {
		case unused && !kept:
			t.Errorf("%s: no non-test code names it; delete it, move it into its package's tests, or add it to keptUnused with the reason it stays", id)
		case !unused && kept:
			t.Errorf("%s: keptUnused lists it, but non-test code names it; take it off the list", id)
		}
	}
	for id := range keptUnused {
		if _, ok := declared[id]; !ok {
			t.Errorf("%s: keptUnused lists it, but no such function is declared under internal/", id)
		}
	}
}
