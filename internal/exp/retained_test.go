package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// engineSuiteList is perfbench's engine-suite experiment list, copied from
// suiteList in perfbench/suite.go: perfbench is its own module, so this
// package cannot import it.
var engineSuiteList = []string{
	"table6.1", "figure6.1", "table6.2", "table6.3", "fix-memcached",
	"table6.4", "table6.5", "table6.6", "fix-apache",
	"figure6.2", "table6.9",
	"diff-falseshare", "diff-conflict", "diff-trueshare", "diff-alienping", "diff-numaremote",
	"ext-oracle", "ext-widewatch", "ext-pebs", "ext-ptu", "ablation-merge",
	"falseshare", "conflict", "trueshare", "alienping", "numaremote",
}

// TestEngineSuiteListMatchesPerfbench keeps engineSuiteList equal to the
// suiteList it copies, so BenchmarkEngineRetainedHeap measures the list
// engine-suite runs. It parses perfbench/suite.go and only reads it.
func TestEngineSuiteListMatchesPerfbench(t *testing.T) {
	const path = "../../perfbench/suite.go"
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var list []string
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "suiteList" || len(spec.Values) != 1 {
			return true
		}
		lit, ok := spec.Values[0].(*ast.CompositeLit)
		if !ok {
			t.Fatalf("%s: suiteList is not a composite literal", path)
		}
		found = true
		for _, elt := range lit.Elts {
			bl, ok := elt.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				t.Fatalf("%s: suiteList element %T is not a string literal", path, elt)
			}
			name, err := strconv.Unquote(bl.Value)
			if err != nil {
				t.Fatal(err)
			}
			list = append(list, name)
		}
		return false
	})
	if !found {
		t.Fatalf("%s declares no suiteList", path)
	}
	if !slices.Equal(list, engineSuiteList) {
		t.Errorf("engineSuiteList differs from %s's suiteList:\n  retained_test.go: %v\n  %s: %v",
			path, engineSuiteList, path, list)
	}
}

// BenchmarkEngineRetainedHeap runs the engine-suite list as perfbench's
// engine-suite workload does (Quick, one worker, WarmStart): one run memo,
// each experiment's body in turn, then its finish, as RunAll's worker
// does. After each finish, with no experiment in flight, it forces a
// garbage collection and reads the heap. retained-MB is the largest of
// those readings: what the engine keeps live between experiments, which
// is the memo's shared runs and their cache hierarchies. Unlike a
// process's peak RSS it depends neither on when the collector happens to
// run nor on how far the next experiment has got.
func BenchmarkEngineRetainedHeap(b *testing.B) {
	var peak uint64
	for b.Loop() {
		m := newRunMemo(engineSuiteList)
		for _, name := range engineSuiteList {
			e, ok := lookup(name)
			if !ok {
				b.Fatalf("unknown experiment %s", name)
			}
			e.run(RunCfg{Quick: true, name: name, memo: m})
			m.finish(name)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}
	b.ReportMetric(float64(peak)/(1<<20), "retained-MB")
}
