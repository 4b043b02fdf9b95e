package exp

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_quick.json"

// goldenFast is the subset of experiments cheap enough for -short runs;
// the full set runs in CI's dedicated golden step and in local full runs.
var goldenFast = map[string]bool{
	"table6.1": true, "table6.2": true, "table6.3": true,
	"fix-memcached": true, "table6.4": true, "table6.6": true,
	"falseshare": true, "conflict": true, "trueshare": true, "alienping": true,
}

// TestGoldenProfiles locks down every experiment's exported Values on the
// single-socket default machine. The goldens were captured before the
// multi-socket topology refactor, so this test is the guarantee that the
// default topology reproduces the pre-refactor paper-experiment values
// byte-identically (ISSUE 3 acceptance criterion). Regenerate deliberately
// with: go test ./internal/exp -run TestGoldenProfiles -update
func TestGoldenProfiles(t *testing.T) {
	want := make(map[string]map[string]float64)
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("parse golden: %v", err)
		}
	}

	var names []string
	for _, name := range Names() {
		if testing.Short() && !goldenFast[name] {
			continue
		}
		names = append(names, name)
	}

	// DPROF_GOLDEN_WARMSTART=1 runs the same goldens as one WarmStart
	// RunAll, so every run that experiments share (table6.4 and table6.5's
	// Apache session, the memcached pairs, fix-apache's bare runs) is read
	// from the one finished run and must still reproduce the checked-in
	// paper bytes — not merely agree with a cold run of the same build.
	// The same RunAll takes the census that holds memoShares to the reads.
	got := make(map[string]map[string]float64)
	if os.Getenv("DPROF_GOLDEN_WARMSTART") != "" {
		rs, memo, err := runAll(context.Background(), names, Options{Quick: true, WarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			got[r.Name] = r.Values
		}
		checkShareCensus(t, memo, names)
	} else {
		for _, name := range names {
			r, err := Run(context.Background(), name, Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = r.Values
		}
	}

	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs the full set; run without -short")
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", goldenPath, len(got))
		return
	}

	for name, vals := range got {
		wv, ok := want[name]
		if !ok {
			t.Errorf("%s: experiment missing from golden file (regenerate with -update)", name)
			continue
		}
		if diff := diffValues(wv, vals); diff != "" {
			t.Errorf("%s: values drifted from pre-refactor golden:\n%s", name, diff)
		}
	}
}

// checkShareCensus holds memoShares to what one warm RunAll over names
// read: the runs that two experiments read must be exactly the runs the
// table names for pairs within names, with those pairs; no run that one
// experiment alone read may be named for a pair holding it (the memo
// would keep it for the partner); and every key must have run once (a
// share missing from the table would run its key twice).
func checkShareCensus(t *testing.T, m *runMemo, names []string) {
	t.Helper()
	within := func(sh memoShare) bool {
		return slices.Contains(names, sh.readers[0]) && slices.Contains(names, sh.readers[1])
	}
	want := map[string]bool{}
	for _, sh := range memoShares {
		if within(sh) {
			want[sh.run+" "+sortedPair(sh.readers[0], sh.readers[1])] = true
		}
	}
	got := map[string]bool{}
	for key, c := range m.reads {
		if c.runs != 1 {
			t.Errorf("warm RunAll ran %s %d times, want once", key, c.runs)
		}
		switch len(c.readers) {
		case 1:
			for _, sh := range memoShares {
				if within(sh) && sh.shares(key) && slices.Contains(sh.readers[:], c.readers[0]) {
					t.Errorf("%s was read by %s alone, but memoShares names its run for %v", key, c.readers[0], sh.readers)
				}
			}
		case 2:
			run := strings.Join(strings.SplitN(key, "|", 4)[:3], "|")
			got[run+" "+sortedPair(c.readers[0], c.readers[1])] = true
		default:
			t.Errorf("%s was read by %v; memoShares holds pairs only", key, c.readers)
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("runs that two experiments read: %v; memoShares within this RunAll: %v",
			slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
}

// sortedPair names a pair of experiments in either read order.
func sortedPair(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "+" + b
}

// diffValues reports exact (bit-level) float mismatches between golden and
// observed value maps.
func diffValues(want, got map[string]float64) string {
	var out string
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			out += fmt.Sprintf("  missing key %q (golden %v)\n", k, w)
			continue
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			out += fmt.Sprintf("  %s: golden %v, got %v\n", k, w, g)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			out += fmt.Sprintf("  new key %q = %v not in golden\n", k, g)
		}
	}
	return out
}
