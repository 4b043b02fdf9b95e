package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dprof/internal/core"
	"dprof/internal/perfin"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mem.perf.data")
	if err := os.WriteFile(path, perfin.FixtureBytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIngestTextReport(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-input", writeFixture(t), "-views", "dataprofile,missclass,dataflow",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{
		"240 samples", "== data profile view ==", "== miss classification view ==",
		"== data flow view ==", "ring_buffer",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestIngestJSONAndDiff(t *testing.T) {
	fixture := writeFixture(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", fixture, "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	doc, err := core.ParseDocument(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Provenance == nil || doc.Provenance.Source != core.SourcePerf || doc.Provenance.WrittenAt == "" {
		t.Fatalf("CLI document provenance = %+v", doc.Provenance)
	}
	saved := filepath.Join(t.TempDir(), "real.json")
	if err := os.WriteFile(saved, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Self-diff of the saved document: all-zero deltas, exit 0.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-input", fixture, "-diff", saved}, &out, &errOut); code != 0 {
		t.Fatalf("diff exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ring_buffer") {
		t.Errorf("diff output missing ingested type:\n%s", out.String())
	}

	// Sim-vs-ingested: the simulated run diffs against the saved real profile.
	out.Reset()
	errOut.Reset()
	code := run([]string{
		"-workload", "falseshare", "-measure-ms", "1", "-diff", saved,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("mixed diff exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "pkt_stat") || !strings.Contains(out.String(), "ring_buffer") {
		t.Errorf("mixed diff missing a side:\n%s", out.String())
	}
}

func TestIngestPprofExport(t *testing.T) {
	pb := filepath.Join(t.TempDir(), "out.pb.gz")
	var out, errOut bytes.Buffer
	code := run([]string{"-input", writeFixture(t), "-pprof", pb}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gzip.NewReader(bytes.NewReader(raw)); err != nil {
		t.Fatalf("export is not gzip: %v", err)
	}
}

func TestIngestErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.perf.data")
	if err := os.WriteFile(bad, []byte("not a perf file"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name       string
		args       []string
		wantErrOut []string
	}{
		{
			name:       "malformed capture fails with the typed parse error",
			args:       []string{"-input", bad},
			wantErrOut: []string{"perf.data", "truncated"},
		},
		{
			name:       "missing file fails",
			args:       []string{"-input", filepath.Join(t.TempDir(), "nope")},
			wantErrOut: []string{"no such file"},
		},
		{
			name:       "unknown view fails and prints the valid set",
			args:       []string{"-input", writeFixture(t), "-views", "dataprofle"},
			wantErrOut: []string{"unknown view", "dataprofile"},
		},
		{
			name:       "unknown type lists the mapped types",
			args:       []string{"-input", writeFixture(t), "-type", "skbuff"},
			wantErrOut: []string{"skbuff", "ring_buffer", "index.dat"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tt.args, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errOut.String())
			}
			for _, want := range tt.wantErrOut {
				if !strings.Contains(errOut.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut.String())
				}
			}
		})
	}
}
