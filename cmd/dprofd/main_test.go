package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") {
		t.Errorf("stderr missing flag error:\n%s", errOut.String())
	}
}

func TestRunBadAddr(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:bogus"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "dprofd:") {
		t.Errorf("stderr missing listen error:\n%s", errOut.String())
	}
}

// TestRunRejectsUnwritableStoreDir: a store directory that cannot be
// created fails at startup with a clear error, not on the first write.
func TestRunRejectsUnwritableStoreDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-store-dir", filepath.Join(f, "store")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"dprofd:", "store"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
}

// TestRunStoreMaxBytesRequiresStoreDir: a byte budget without a store to
// bound is a usage error, caught before the server starts.
func TestRunStoreMaxBytesRequiresStoreDir(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-store-max-bytes", "1048576"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-store-dir") {
		t.Errorf("stderr missing -store-dir hint:\n%s", errOut.String())
	}
}

func TestRunPeersRequireSelf(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-peers", "http://a:7071,http://b:7071"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-self") {
		t.Errorf("stderr missing -self hint:\n%s", errOut.String())
	}
}

func TestRunRejectsMalformedPeer(t *testing.T) {
	var out, errOut strings.Builder
	code := run(context.Background(), []string{"-self", "http://a:7071", "-peers", "http://a:7071,not-a-url"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "replica") {
		t.Errorf("stderr missing replica error:\n%s", errOut.String())
	}
}

// syncWriter is run's stdout in the lifecycle tests: run writes from its
// own goroutine while the test reads, so writes are serialized, and the
// address on the first complete "listening on" line is sent on listening.
type syncWriter struct {
	mu        sync.Mutex
	buf       strings.Builder
	announced bool
	listening chan string
}

func newSyncWriter() *syncWriter { return &syncWriter{listening: make(chan string, 1)} }

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.announced {
		for _, line := range strings.SplitAfter(w.buf.String(), "\n") {
			addr, ok := strings.CutPrefix(line, "dprofd: listening on ")
			if ok && strings.HasSuffix(addr, "\n") {
				w.announced = true
				w.listening <- strings.TrimSuffix(addr, "\n")
				break
			}
		}
	}
	return len(p), nil
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemon is a run() started in the background on its own context.
type daemon struct {
	addr        string
	out, errOut *syncWriter
	cancel      context.CancelFunc
	done        chan int
}

// startDaemon starts run and waits for it to announce its bound address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	d := &daemon{out: newSyncWriter(), errOut: newSyncWriter(), cancel: cancel, done: make(chan int, 1)}
	go func() { d.done <- run(ctx, args, d.out, d.errOut) }()
	select {
	case d.addr = <-d.out.listening:
	case code := <-d.done:
		t.Fatalf("run exited with %d before listening\nstderr:\n%s", code, d.errOut.String())
	case <-time.After(10 * time.Second):
		t.Fatal("run never printed its listening address")
	}
	return d
}

// stop cancels the daemon's context and requires a graceful, clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cancel()
	select {
	case code := <-d.done:
		if code != 0 {
			t.Fatalf("exit code = %d\nstdout:\n%s\nstderr:\n%s", code, d.out.String(), d.errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
	if !strings.Contains(d.out.String(), "shutting down") {
		t.Errorf("stdout missing shutdown message:\n%s", d.out.String())
	}
}

// TestRunStartsAndShutsDown drives the full lifecycle: listen on an
// ephemeral port, announce the bound port, then a context cancellation
// triggers the graceful path.
func TestRunStartsAndShutsDown(t *testing.T) {
	d := startDaemon(t, "-addr", "127.0.0.1:0")
	if strings.HasSuffix(d.addr, ":0") {
		t.Errorf("announced %q, want the bound port", d.addr)
	}
	d.stop(t)
}

// TestRunServesFromStoreAfterRestart drives the binary's own run() across a
// restart on one -store-dir: the first daemon simulates a profile and
// persists it, and the second serves the same bytes off disk without
// simulating.
func TestRunServesFromStoreAfterRestart(t *testing.T) {
	const body = `{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	store := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-quick", "-store-dir", store}

	post := func(addr string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/profile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /profile status %d: %s", resp.StatusCode, raw)
		}
		return resp, raw
	}

	d := startDaemon(t, args...)
	resp, first := post(d.addr)
	if disp := resp.Header.Get("X-DProf-Cache"); disp != "miss" {
		t.Errorf("first run disposition = %q, want miss", disp)
	}
	d.stop(t)

	d = startDaemon(t, args...)
	resp, second := post(d.addr)
	if disp := resp.Header.Get("X-DProf-Cache"); disp != "disk" {
		t.Errorf("restarted disposition = %q, want disk", disp)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted daemon served different bytes")
	}
	hresp, err := http.Get("http://" + d.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Simulations *int64 `json:"simulations"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Simulations == nil || *health.Simulations != 0 {
		t.Errorf("restarted daemon /healthz simulations = %v, want 0", health.Simulations)
	}
	d.stop(t)
}
