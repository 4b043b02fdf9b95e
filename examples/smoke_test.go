// Package examples_test smoke-tests every example binary: each must build
// and complete a tiny (-quick) run whose stdout matches
// testdata/<name>.quick.golden byte for byte, so the examples cannot
// silently rot, or silently change what they print, as the APIs underneath
// them move. Regenerate the goldens with:
//
//	go test ./examples -update
package examples_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// exampleDirs discovers the example main packages (every subdirectory with
// a main.go).
func exampleDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			if _, err := os.Stat(filepath.Join(e.Name(), "main.go")); err == nil {
				dirs = append(dirs, e.Name())
			}
		}
	}
	if len(dirs) < 5 {
		t.Fatalf("found only %d example dirs: %v", len(dirs), dirs)
	}
	return dirs
}

func TestExamplesBuildAndRun(t *testing.T) {
	bin := t.TempDir()
	for _, dir := range exampleDirs(t) {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			exe := filepath.Join(bin, dir)
			build := exec.Command("go", "build", "-o", exe, "./examples/"+dir)
			build.Dir = ".." // repo root
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./examples/%s: %v\n%s", dir, err, out)
			}

			// A deadline so one hung example fails its subtest instead of
			// stalling the whole test binary.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			run := exec.CommandContext(ctx, exe, "-quick")
			run.Stdout, run.Stderr = &stdout, &stderr
			run.WaitDelay = 10 * time.Second
			if err := run.Run(); err != nil {
				t.Fatalf("%s -quick: %v\n%s%s", dir, err, stdout.Bytes(), stderr.Bytes())
			}
			out := stdout.Bytes()
			if len(bytes.TrimSpace(out)) == 0 {
				t.Fatalf("%s -quick produced no output", dir)
			}
			golden := filepath.Join("testdata", dir+".quick.golden")
			if *update {
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s -quick stdout differs from %s:\n--- got ---\n%s\n--- want ---\n%s", dir, golden, out, want)
			}
		})
	}
}
