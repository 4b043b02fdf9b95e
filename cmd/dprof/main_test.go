package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		wantCode   int
		wantErrOut []string
	}{
		{
			name:       "unknown workload fails and prints the valid set",
			args:       []string{"-workload", "nginx"},
			wantCode:   2,
			wantErrOut: []string{"unknown workload", "nginx", "memcached", "apache"},
		},
		{
			name:       "unknown view fails and prints the valid set",
			args:       []string{"-views", "dataprofle"},
			wantCode:   2,
			wantErrOut: []string{"unknown view", "dataprofle", "dataprofile", "pathtrace"},
		},
		{
			name:       "unknown type fails and prints the valid set",
			args:       []string{"-views", "dataflow", "-type", "skbuf"},
			wantCode:   2,
			wantErrOut: []string{"unknown type", "skbuf", "skbuff"},
		},
		{
			name:       "window-ms whose cycle count overflows fails",
			args:       []string{"-workload", "falseshare", "-window-ms", "288230376151711744"},
			wantCode:   2,
			wantErrOut: []string{"window-ms", "bad int value", "288230376151711744"},
		},
		{
			name:       "bad flag fails",
			args:       []string{"-no-such-flag"},
			wantCode:   2,
			wantErrOut: []string{"flag provided but not defined"},
		},
		{
			name:       "memcached rejects apache's -offered and lists declared options",
			args:       []string{"-workload", "memcached", "-offered", "110000"},
			wantCode:   2,
			wantErrOut: []string{"does not accept", "offered", "fix", "window"},
		},
		{
			name:       "apache rejects memcached's -fix",
			args:       []string{"-workload", "apache", "-fix"},
			wantCode:   2,
			wantErrOut: []string{"does not accept", "fix", "backlog", "offered"},
		},
		{
			name:       "apache rejects memcached's -window",
			args:       []string{"-workload", "apache", "-window", "10"},
			wantCode:   2,
			wantErrOut: []string{`workload "apache"`, "does not accept", "window"},
		},
		{
			name:       "scenario workloads reject case-study options",
			args:       []string{"-workload", "falseshare", "-backlog", "5"},
			wantCode:   2,
			wantErrOut: []string{`workload "falseshare"`, "does not accept", "backlog", "padded"},
		},
		{
			name:       "unknown workload message lists the scenario workloads too",
			args:       []string{"-workload", "nginx"},
			wantCode:   2,
			wantErrOut: []string{"falseshare", "conflict", "trueshare", "alienping", "numaremote"},
		},
		{
			name:       "invalid topology is rejected",
			args:       []string{"-workload", "numaremote", "-sockets", "9", "-cores-per-socket", "9"},
			wantCode:   1,
			wantErrOut: []string{"topology", "9x9"},
		},
		{
			name:       "topology whose core count overflows is a CLI error, not a panic",
			args:       []string{"-workload", "memcached", "-sockets", "4", "-cores-per-socket", "4611686018427387904"},
			wantCode:   1,
			wantErrOut: []string{"topology", "more than 64 cores"},
		},
		{
			name:       "socket count that does not divide the L3 is a CLI error, not a panic",
			args:       []string{"-workload", "numaremote", "-sockets", "3", "-cores-per-socket", "4"},
			wantCode:   1,
			wantErrOut: []string{"L3 size", "3 sockets"},
		},
		{
			name:       "unknown alloc policy is rejected and lists the valid set",
			args:       []string{"-workload", "numaremote", "-alloc-policy", "bogus"},
			wantCode:   1,
			wantErrOut: []string{"unknown allocation policy", "bogus", "firsttouch", "interleave", "pinned"},
		},
		{
			name:       "workloads without topology options reject -sockets",
			args:       []string{"-workload", "falseshare", "-sockets", "4"},
			wantCode:   2,
			wantErrOut: []string{`workload "falseshare"`, "does not accept", "sockets"},
		},
		{
			name:       "the removed -parallel-shards option is rejected",
			args:       []string{"-workload", "memcached", "-parallel-shards", "2"},
			wantCode:   2,
			wantErrOut: []string{"parallel-shards"},
		},
		{
			name:       "malformed sweep topology is rejected",
			args:       []string{"-workload", "numaremote", "-sweep-topology", "4by4"},
			wantCode:   2,
			wantErrOut: []string{"SOCKETSxCORES"},
		},
		{
			name:       "unwritable cpuprofile path is a usage error",
			args:       []string{"-workload", "falseshare", "-cpuprofile", filepath.Join("no", "such", "dir", "cpu.pprof")},
			wantCode:   2,
			wantErrOut: []string{"dprof:", "cpu.pprof"},
		},
		{
			name:       "unwritable memprofile path is a usage error",
			args:       []string{"-workload", "falseshare", "-memprofile", filepath.Join("no", "such", "dir", "heap.pprof")},
			wantCode:   2,
			wantErrOut: []string{"dprof:", "heap.pprof"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tt.args, &out, &errOut)
			if code != tt.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tt.wantCode, out.String(), errOut.String())
			}
			for _, want := range tt.wantErrOut {
				if !strings.Contains(errOut.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut.String())
				}
			}
		})
	}
}

func TestListWorkloads(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-list-workloads"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"memcached", "apache", "falseshare", "conflict", "trueshare", "alienping", "numaremote", "-fix", "-offered", "-padded", "-sockets", "-alloc-policy", "-seed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("listing missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunScenarioWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	var out, errOut strings.Builder
	code := run([]string{
		"-workload", "trueshare", "-views", "dataprofile,missclass", "-lockstat", "-measure-ms", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"== data profile view ==", "== miss classification view ==", "== lock-stat baseline ==", "job lock"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMemcachedDataProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload run")
	}
	var out, errOut strings.Builder
	code := run([]string{"-workload", "memcached", "-measure-ms", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "== data profile view ==") {
		t.Errorf("data profile view missing:\n%s", out.String())
	}
}

func TestRunTopologySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	var out, errOut strings.Builder
	code := run([]string{
		"-workload", "numaremote", "-sweep-topology", "1x16,4x4", "-measure-ms", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"topology", "1x16", "4x4", "buffers/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sweep output missing %q:\n%s", want, out.String())
		}
	}
}

// TestJSONOutputMatchesDocumentFormat runs a tiny session with -json and
// checks the output parses as the canonical profile document (the dprofd
// POST /profile format) with the canonical options filled in.
func TestJSONOutputMatchesDocumentFormat(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1", "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var doc struct {
		Workload string                     `json:"workload"`
		Options  map[string]string          `json:"options"`
		Topology string                     `json:"topology"`
		Summary  string                     `json:"summary"`
		Values   map[string]float64         `json:"values"`
		Views    map[string]json.RawMessage `json:"views"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, stdout.String())
	}
	if doc.Workload != "falseshare" || doc.Summary == "" || doc.Topology == "" {
		t.Errorf("document incomplete: %+v", doc)
	}
	if doc.Options["padded"] != "false" || doc.Options["seed"] != "0" || doc.Options["window-ms"] != "0" {
		t.Errorf("canonical options not filled in: %v", doc.Options)
	}
	if _, ok := doc.Views["dataprofile"]; !ok {
		t.Errorf("views missing dataprofile: %v", doc.Views)
	}
	if doc.Values["throughput"] <= 0 {
		t.Errorf("values missing throughput: %v", doc.Values)
	}
}

// TestDiffAgainstSavedProfile saves a broken falseshare profile with -json,
// rediffs the fixed run against it, and checks pkt_stat tops the ranking —
// the paper's differential-analysis workflow end to end through the CLI.
func TestDiffAgainstSavedProfile(t *testing.T) {
	var saved, stderr strings.Builder
	code := run([]string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1", "-json",
	}, &saved, &stderr)
	if code != 0 {
		t.Fatalf("saving profile: exit %d: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, []byte(saved.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout strings.Builder
	stderr.Reset()
	code = run([]string{
		"-workload", "falseshare", "-padded", "-rate", "100000", "-measure-ms", "1",
		"-diff", path, "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("diff: exit %d: %s", code, stderr.String())
	}
	var out struct {
		Top  string `json:"top"`
		Diff struct {
			Rows []struct {
				Type  string  `json:"type"`
				Score float64 `json:"score"`
			} `json:"rows"`
		} `json:"diff"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &out); err != nil {
		t.Fatalf("diff output not JSON: %v\n%s", err, stdout.String())
	}
	if out.Top != "pkt_stat" {
		t.Errorf("top suspect = %q, want pkt_stat\n%s", out.Top, stdout.String())
	}

	// Text mode renders the ranked table with the same suspect on top.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-workload", "falseshare", "-padded", "-rate", "100000", "-measure-ms", "1",
		"-diff", path,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("text diff: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "top suspect: pkt_stat") {
		t.Errorf("text diff missing top suspect line:\n%s", stdout.String())
	}

	// A missing file is a usage error.
	stderr.Reset()
	if code := run([]string{
		"-workload", "falseshare", "-diff", filepath.Join(t.TempDir(), "nope.json"),
	}, &stdout, &stderr); code != 2 {
		t.Errorf("missing diff file: exit %d, want 2", code)
	}
}

// TestSelfProfilingFlagsWriteProfiles runs a tiny session with -cpuprofile
// and -memprofile and checks both files land as parseable pprof data (gzip
// magic) without disturbing the run's own output.
func TestSelfProfilingFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	var stdout, stderr strings.Builder
	code := run([]string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "1",
		"-cpuprofile", cpu, "-memprofile", heap,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== data profile view ==") {
		t.Errorf("profiled run lost its report:\n%s", stdout.String())
	}
	for _, path := range []string{cpu, heap} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		// pprof files are gzip-compressed protobufs; the magic is enough to
		// know the writer ran and flushed.
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Errorf("%s is not a gzip pprof profile (%d bytes)", path, len(raw))
		}
	}
}

// TestWindowedTextReportListsWindows checks -window-ms adds the per-window
// summary to the text report.
func TestWindowedTextReportListsWindows(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{
		"-workload", "falseshare", "-rate", "100000", "-measure-ms", "3", "-window-ms", "1",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "== profiling windows ==") {
		t.Fatalf("windowed report missing window summary:\n%s", out)
	}
	if !strings.Contains(out, "window") || strings.Count(out, "\n") < 5 {
		t.Errorf("window table too short:\n%s", out)
	}
}
