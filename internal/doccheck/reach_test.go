package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy a standard-library
// interface (fmt.Stringer, error, io.Reader/Writer/Closer, the sinks'
// Flush). Such methods are reached through the interface, not by name,
// so the scan exempts them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Flush": true, "Close": true,
}

// reachAllowlist names the exported functions no production file
// references that are kept anyway, each with its reason. Keys are
// "dir.Name" for functions and "dir.Type.Name" for methods, dir being
// the package directory relative to the module root.
var reachAllowlist = map[string]string{
	// Named oracles and fuzz targets: tests hold production paths to them.
	"internal/experiments.Table1Run":           "serial oracle of TestTable1MatchesSerialForAnyWorkerCount",
	"internal/fusion.CheckTheorem2":            "Theorem 2 property oracle",
	"internal/fusion.MarzulloWidthBound":       "Theorem 2 property oracle",
	"internal/fusion.WorstCaseNoAttack":        "Theorem 2 property oracle",
	"internal/interval.Sweeper.FuseBatch":      "FuzzFuseBatch target; pins the batch kernels to FuseWith",
	"internal/verdict.DecodeScenario":          "FuzzDecodeScenario target",
	"internal/interval.Coverage.MaxCoverageOn": "windowed-coverage oracle of the attacker's stealth tests",
	"internal/interval.Sweeper.WidthWith":      "attacker objective measured by BenchmarkSweeperFuseScalar and the plan-search tests",
	// Test seams other packages' tests drive: the chaos soak schedules
	// (internal/coordinator) and the kernel-dispatch checks (internal/fusion).
	"internal/chaos.Injector.Fired":          "fault-firing count asserted by the cache and chaos tests",
	"internal/chaos.NewKillWriter":           "worker-kill fault of the coordinator chaos soak",
	"internal/chaos.NewSchedule":             "seeded fault schedule of the coordinator chaos soak",
	"internal/chaos.Schedule.Describe":       "names a soak schedule in coordinator test failures",
	"internal/chaos.Schedule.Recoverable":    "splits the coordinator soak into heal and degrade legs",
	"internal/interval.KernelName":           "names the dispatched kernel in the cross-kernel tests",
	"internal/interval.Interval.ApproxEqual": "float-tolerant comparison of the attack and trace tests",
	"internal/cache.Store.Puts":              "write counter asserted by the cache and scenario-cache tests",
}

// unreached walks every non-test .go file under root (skipping testdata
// and hidden directories) and returns the exported functions and
// methods declared under internal/ or cmd/ whose name appears nowhere
// else in the parsed files. Matching is by name, not by type, so a name
// shared with any referenced identifier counts as reached.
func unreached(t *testing.T, root string) []string {
	t.Helper()
	type decl struct {
		key  string
		name string
	}
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		scanned := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok || !scanned || !fn.Name.IsExported() {
				continue
			}
			key := rel + "." + fn.Name.Name
			if fn.Recv != nil {
				if interfaceMethods[fn.Name.Name] {
					continue
				}
				key = rel + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[fn.Name] = true
			decls = append(decls, decl{key: key, name: fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range decls {
		if !refs[d.name] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestEveryExportedFuncIsReached keeps dead code out: every exported
// function or method under internal/ and cmd/ must be referenced
// somewhere besides its own declaration by a non-test file of the module
// (perfbench/ and examples/ included), or be on reachAllowlist with a
// reason.
func TestEveryExportedFuncIsReached(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, key := range unreached(t, root) {
		found[key] = true
		if _, ok := reachAllowlist[key]; !ok {
			t.Errorf("%s is exported but no production file references it: delete it, move it into a _test.go file, or allowlist it with a reason", key)
		}
	}
	for key := range reachAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s is stale: it is referenced now, or gone", key)
		}
	}
}

// TestReachScanReportsOrphan proves the scan bites: the fixture module
// declares one exported function nothing calls.
func TestReachScanReportsOrphan(t *testing.T) {
	got := unreached(t, filepath.Join("testdata", "reach"))
	want := []string{"internal/lib.Orphan"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}
