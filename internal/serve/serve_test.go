package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Shutdown()
		ts.Close()
	})
	return s, ts
}

func postProfile(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// quickProfile is the cheap request most tests use: one simulated
// millisecond of the falseshare scenario.
const quickProfile = `{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []struct {
		Name    string `json:"name"`
		Options []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"options"`
		Windows struct {
			Measure uint64 `json:"measure_cycles"`
		} `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range got {
		names[w.Name] = true
		if w.Windows.Measure == 0 {
			t.Errorf("workload %s: zero measure window", w.Name)
		}
	}
	for _, want := range []string{"memcached", "apache", "falseshare", "trueshare", "numaremote"} {
		if !names[want] {
			t.Errorf("listing missing workload %q", want)
		}
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"table6.1", "figure6.2", "falseshare"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("experiment listing missing %q:\n%s", want, raw)
		}
	}
}

// TestProfileErrors mirrors the CLI contract over HTTP: every rejection is
// a 4xx whose message carries the declared valid set.
func TestProfileErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		name     string
		body     string
		wantCode int
		wantMsg  []string
	}{
		{
			name:     "unknown workload lists the registered set",
			body:     `{"workload":"nginx"}`,
			wantCode: 404,
			wantMsg:  []string{"unknown workload", "nginx", "memcached", "falseshare"},
		},
		{
			name:     "undeclared option lists the declared set",
			body:     `{"workload":"falseshare","options":{"offered":"110000"}}`,
			wantCode: 400,
			wantMsg:  []string{"does not accept", "offered", "padded", "seed"},
		},
		{
			name:     "bad option value names the kind",
			body:     `{"workload":"falseshare","options":{"padded":"maybe"}}`,
			wantCode: 400,
			wantMsg:  []string{"bad bool value", "maybe"},
		},
		{
			name:     "unknown view lists the known views",
			body:     `{"workload":"falseshare","views":["dataprofle"]}`,
			wantCode: 400,
			wantMsg:  []string{"unknown view", "dataprofle", "dataprofile", "pathtrace"},
		},
		{
			name:     "unknown type lists the workload's types",
			body:     `{"workload":"falseshare","views":["dataflow"],"type":"skbuf","measure_ms":1,"quick":true}`,
			wantCode: 400,
			wantMsg:  []string{"unknown type", "skbuf", "pkt_stat"},
		},
		{
			name:     "oversized window is rejected",
			body:     `{"workload":"falseshare","measure_ms":9999999}`,
			wantCode: 400,
			wantMsg:  []string{"measure_ms", "exceeds"},
		},
		{
			name:     "window-ms whose cycle count overflows is a bad value",
			body:     `{"workload":"falseshare","options":{"window-ms":"288230376151711744"}}`,
			wantCode: 400,
			wantMsg:  []string{"window-ms", "bad int value", "288230376151711744"},
		},
		{
			name:     "oversized history-set count is rejected",
			body:     `{"workload":"falseshare","views":["pathtrace"],"sets":2000000000}`,
			wantCode: 400,
			wantMsg:  []string{"sets", "exceeds"},
		},
		{
			name:     "oversized sample rate is rejected",
			body:     `{"workload":"falseshare","rate":1e12}`,
			wantCode: 400,
			wantMsg:  []string{"rate", "exceeds"},
		},
		{
			name:     "bad topology is the client's fault",
			body:     `{"workload":"numaremote","options":{"sockets":"3","cores-per-socket":"4"},"measure_ms":1,"quick":true}`,
			wantCode: 400,
			wantMsg:  []string{"building numaremote", "L3 size"},
		},
		{
			name:     "topology whose core count overflows is the client's fault",
			body:     `{"workload":"memcached","options":{"sockets":"4","cores-per-socket":"4611686018427387904"},"measure_ms":1,"quick":true}`,
			wantCode: 400,
			wantMsg:  []string{"building memcached", "more than 64 cores"},
		},
		{
			name:     "malformed body",
			body:     `{"workload":`,
			wantCode: 400,
			wantMsg:  []string{"bad request body"},
		},
		{
			name:     "unknown field in body",
			body:     `{"workload":"falseshare","wiews":["dataprofile"]}`,
			wantCode: 400,
			wantMsg:  []string{"bad request body", "wiews"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, raw := postProfile(t, ts, tt.body)
			if resp.StatusCode != tt.wantCode {
				t.Fatalf("status = %d, want %d\nbody: %s", resp.StatusCode, tt.wantCode, raw)
			}
			for _, want := range tt.wantMsg {
				if !strings.Contains(string(raw), want) {
					t.Errorf("body missing %q:\n%s", want, raw)
				}
			}
		})
	}
}

func TestExperimentBadQuickValue(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/experiments/table6.1?quick=maybe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400\nbody: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "quick") {
		t.Errorf("body missing field name:\n%s", raw)
	}
}

func TestExperimentUnknownName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/experiments/table9.9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404\nbody: %s", resp.StatusCode, raw)
	}
	for _, want := range []string{"unknown experiment", "table9.9", "table6.1"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("body missing %q:\n%s", want, raw)
		}
	}
}

// TestProfileAllViewsStableJSON is the acceptance test for the serving
// contract: all five views arrive as JSON, a repeat is served from the
// cache byte-identically without a second simulation, and an independent
// server produces the same bytes for the same request (stability across
// same-seed runs, not just within one process).
func TestProfileAllViewsStableJSON(t *testing.T) {
	body := `{"workload":"falseshare","measure_ms":2,"quick":true}`

	s, ts := newTestServer(t, Config{})
	resp, first := postProfile(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\nbody: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-DProf-Cache"); got != "miss" {
		t.Errorf("first request cache disposition = %q, want miss", got)
	}
	var parsed struct {
		Workload string                     `json:"workload"`
		Options  map[string]string          `json:"options"`
		Summary  string                     `json:"summary"`
		Views    map[string]json.RawMessage `json:"views"`
	}
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, first)
	}
	for _, view := range []string{"dataprofile", "workingset", "missclass", "dataflow", "pathtrace"} {
		raw, ok := parsed.Views[view]
		if !ok || len(raw) == 0 {
			t.Errorf("view %q missing from response", view)
		}
	}
	if parsed.Options["padded"] != "false" || parsed.Options["seed"] != "0" {
		t.Errorf("canonical options not filled in: %v", parsed.Options)
	}
	if parsed.Summary == "" {
		t.Error("empty summary")
	}

	resp2, second := postProfile(t, ts, body)
	if resp2.Header.Get("X-DProf-Cache") != "hit" {
		t.Errorf("repeat not served from cache (%q)", resp2.Header.Get("X-DProf-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from the original")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1", n)
	}

	// A fresh server (empty cache) must reproduce the same bytes: the
	// response is a function of the request, not of the process.
	_, ts2 := newTestServer(t, Config{})
	_, independent := postProfile(t, ts2, body)
	if !bytes.Equal(first, independent) {
		t.Errorf("same request, different bytes across servers:\n%s\n---\n%s", first, independent)
	}
}

// TestProfileContentAddressing: equal-meaning requests (flag-style vs
// canonical option spellings, explicit defaults vs omitted, shuffled view
// lists) hit the same cache entry.
func TestProfileContentAddressing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := `{"workload":"falseshare","options":{"padded":"1"},"views":["missclass","dataprofile"],"measure_ms":1,"quick":true}`
	b := `{"workload":"falseshare","options":{"padded":"true","seed":"0"},"views":["dataprofile","missclass","dataprofile"],"measure_ms":1,"quick":true}`

	_, first := postProfile(t, ts, a)
	resp, second := postProfile(t, ts, b)
	if resp.Header.Get("X-DProf-Cache") != "hit" {
		t.Errorf("equal-meaning request missed the cache (%q)", resp.Header.Get("X-DProf-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("equal-meaning requests returned different bytes")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1", n)
	}
}

// TestProfileSingleflight is the dedup acceptance test: 8 identical
// concurrent requests share exactly one simulation and return
// byte-identical bodies.
func TestProfileSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(quickProfile))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d\nbody: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if got := s.Simulations(); got != 1 {
		t.Errorf("simulations = %d, want 1 for %d identical concurrent requests", got, n)
	}
	// The counters must add up: one launched computation; every other
	// request either joined the flight or hit the cache afterwards.
	if misses := s.misses.Load(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if other := s.dedups.Load() + s.hits.Load(); other != n-1 {
		t.Errorf("dedups+hits = %d, want %d", other, n-1)
	}
}

func TestExperimentRunAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/experiments/falseshare?quick=1")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}
	resp, first := get()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\nbody: %s", resp.StatusCode, first)
	}
	var parsed struct {
		Name   string             `json:"name"`
		Title  string             `json:"title"`
		Text   string             `json:"text"`
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Name != "falseshare" || parsed.Text == "" || len(parsed.Values) == 0 {
		t.Fatalf("incomplete result: %+v", parsed)
	}
	resp2, second := get()
	if resp2.Header.Get("X-DProf-Cache") != "hit" {
		t.Errorf("repeat not cached (%q)", resp2.Header.Get("X-DProf-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cached experiment differs")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1", n)
	}
}

// TestExperimentStreamNDJSON: the engine's progress events bridge to the
// client, terminal event before result.
func TestExperimentStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/experiments/falseshare?quick=1&stream=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		if line.Event != "" {
			events = append(events, line.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"started", "finished", "result"}
	got := strings.Join(events, ",")
	for _, ev := range want {
		if !strings.Contains(got, ev) {
			t.Errorf("stream missing %q event: %s", ev, got)
		}
	}
	if events[len(events)-1] != "result" {
		t.Errorf("stream did not end with result: %s", got)
	}
}

// TestProfileStreamSSE: a streamed profile emits acceptance then the result
// in SSE framing.
func TestProfileStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/profile?stream=sse", "application/json", strings.NewReader(quickProfile))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"event: accepted", "event: result", `"summary"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("SSE stream missing %q:\n%s", want, raw)
		}
	}
}

// TestShutdownFailsFast: a request waiting for a worker slot returns 503 as
// soon as the server's lifetime context ends, instead of hanging behind a
// simulation it will never get to run.
func TestShutdownFailsFast(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot so the request below must queue.
	if err := s.acquire(); err != nil {
		t.Fatal(err)
	}
	defer s.release()

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(quickProfile))
		if err != nil {
			done <- result{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, raw}
	}()

	select {
	case r := <-done:
		t.Fatalf("request finished before shutdown: %d %s", r.code, r.body)
	case <-time.After(200 * time.Millisecond):
		// Queued behind the held slot, as intended.
	}
	s.Shutdown()
	select {
	case r := <-done:
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503\nbody: %s", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request did not fail after shutdown")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["status"] != "ok" || got["workers"] != float64(3) {
		t.Errorf("healthz = %v", got)
	}
}

// --- the disk store read-through layer ---

// TestStoreWarmRestartServesWithoutSimulating is the persistence
// acceptance test: a fresh server over a warm store directory (cold LRU,
// warm disk) answers a repeat byte-identically with zero simulation work,
// and the disposition + /stats counters say the disk served it.
func TestStoreWarmRestartServesWithoutSimulating(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	resp1, first := postProfile(t, ts1, quickProfile)
	if resp1.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp1.StatusCode, first)
	}
	if n := s1.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1", n)
	}
	s1.Shutdown()
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp2, second := postProfile(t, ts2, quickProfile)
	if resp2.StatusCode != 200 {
		t.Fatalf("restart status %d: %s", resp2.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted server served different bytes")
	}
	if d := resp2.Header.Get("X-DProf-Cache"); d != "disk" {
		t.Errorf("disposition = %q, want disk", d)
	}
	if n := s2.Simulations(); n != 0 {
		t.Errorf("restarted server ran %d simulations, want 0", n)
	}

	// Promoted into the LRU: the next repeat never touches the disk.
	resp3, _ := postProfile(t, ts2, quickProfile)
	if d := resp3.Header.Get("X-DProf-Cache"); d != "hit" {
		t.Errorf("second repeat disposition = %q, want hit", d)
	}

	var stats struct {
		Store struct {
			Entries   int64 `json:"entries"`
			Hits      int64 `json:"hits"`
			Puts      int64 `json:"puts"`
			BytesRead int64 `json:"bytes_read"`
		} `json:"store"`
	}
	resp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store.Entries != 1 || stats.Store.Hits != 1 || stats.Store.BytesRead == 0 {
		t.Errorf("store stats = %+v", stats.Store)
	}
}

// TestStoreByteBudgetSweepsOldest: with StoreMaxBytes set, a write that
// lands over budget evicts the oldest stored profile; the /stats store
// section reports the budget and the sweep counters, and the evicted
// profile simply re-simulates on its next request.
func TestStoreByteBudgetSweepsOldest(t *testing.T) {
	const secondProfile = `{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	type storeStats struct {
		Entries       int64 `json:"entries"`
		MaxBytes      int64 `json:"max_bytes"`
		BytesResident int64 `json:"bytes_resident"`
		Sweeps        int64 `json:"sweeps"`
		SweptObjects  int64 `json:"swept_objects"`
		SweptBytes    int64 `json:"swept_bytes"`
	}
	readStats := func(ts *httptest.Server) storeStats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats struct {
			Store storeStats `json:"store"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats.Store
	}

	// Learn both documents' on-disk sizes with an unbounded server.
	s1, ts1 := newTestServer(t, Config{StoreDir: t.TempDir()})
	resp1, first := postProfile(t, ts1, quickProfile)
	if resp1.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp1.StatusCode, first)
	}
	size1 := readStats(ts1).BytesResident
	postProfile(t, ts1, secondProfile)
	total := readStats(ts1).BytesResident
	if size1 == 0 || total <= size1 {
		t.Fatalf("store sizes not tracked: first %d, total %d", size1, total)
	}
	s1.Shutdown()
	ts1.Close()

	// A budget that fits either document alone but not both: the second Put
	// must sweep the first (older) one.
	budget := total - 1
	dir := t.TempDir()
	s2, ts2 := newTestServer(t, Config{StoreDir: dir, StoreMaxBytes: budget})
	if resp, body := postProfile(t, ts2, quickProfile); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postProfile(t, ts2, secondProfile); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	st := readStats(ts2)
	if st.MaxBytes != budget {
		t.Errorf("max_bytes = %d, want %d", st.MaxBytes, budget)
	}
	if st.Entries != 1 || st.Sweeps != 1 || st.SweptObjects != 1 || st.SweptBytes == 0 {
		t.Errorf("store stats after over-budget put: %+v", st)
	}
	if st.BytesResident > budget {
		t.Errorf("bytes_resident = %d over budget %d after sweep", st.BytesResident, budget)
	}

	// The survivor serves from disk on a restart; the swept profile pays
	// one re-simulation and nothing is lost.
	s2.Shutdown()
	ts2.Close()
	s3, ts3 := newTestServer(t, Config{StoreDir: dir, StoreMaxBytes: budget})
	if resp, _ := postProfile(t, ts3, secondProfile); resp.Header.Get("X-DProf-Cache") != "disk" {
		t.Errorf("survivor disposition = %q, want disk", resp.Header.Get("X-DProf-Cache"))
	}
	resp4, again := postProfile(t, ts3, quickProfile)
	if resp4.StatusCode != 200 {
		t.Fatalf("re-simulated status %d", resp4.StatusCode)
	}
	if !bytes.Equal(first, again) {
		t.Error("re-simulated profile differs from the original bytes")
	}
	if n := s3.Simulations(); n != 1 {
		t.Errorf("restarted server ran %d simulations, want 1 (the swept profile)", n)
	}
}

// TestStoreCorruptEntryFallsBackToSimulate: a torn object on disk reads
// as a miss, the request re-simulates to the same bytes, and the entry is
// repaired in place.
func TestStoreCorruptEntryFallsBackToSimulate(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	_, first := postProfile(t, ts1, quickProfile)
	s1.Shutdown()
	ts1.Close()

	// Truncate the single stored object.
	var object string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			object = path
		}
		return err
	})
	if err != nil || object == "" {
		t.Fatalf("no stored object found: %v", err)
	}
	raw, err := os.ReadFile(object)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(object, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp, second := postProfile(t, ts2, quickProfile)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	if !bytes.Equal(first, second) {
		t.Error("re-simulated bytes differ from the original")
	}
	if n := s2.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1 (corrupt entry must re-simulate)", n)
	}

	// Repaired: a third server serves from disk again.
	s3, ts3 := newTestServer(t, Config{StoreDir: dir})
	resp3, third := postProfile(t, ts3, quickProfile)
	if d := resp3.Header.Get("X-DProf-Cache"); d != "disk" {
		t.Errorf("post-repair disposition = %q, want disk", d)
	}
	if !bytes.Equal(first, third) {
		t.Error("repaired entry differs from the original")
	}
	if n := s3.Simulations(); n != 0 {
		t.Errorf("post-repair simulations = %d, want 0", n)
	}
}

func TestNewRejectsUnusableStoreDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{StoreDir: filepath.Join(f, "store")})
	if err == nil {
		t.Fatal("New accepted a store dir under a regular file")
	}
	if !strings.Contains(err.Error(), "store") {
		t.Errorf("error does not name the store: %v", err)
	}
}

// --- unit tests for the cache building blocks ---

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.put("a", []byte("A"), nil)
	c.put("b", []byte("B"), nil)
	if _, ok := c.get("a"); !ok { // touch a: b becomes coldest
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"), nil)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	var runs int32
	release := make(chan struct{})
	run := func() ([]byte, error) {
		runs++ // guarded by the barrier below: only one goroutine runs this
		<-release
		return []byte("body"), nil
	}
	const n = 4
	var wg sync.WaitGroup
	leaders := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err, leader := g.do(t.Context(), "k", run)
			leaders[i] = leader
			if err != nil || string(body) != "body" {
				t.Errorf("do = %q, %v", body, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let all callers join the flight
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Errorf("computation ran %d times, want 1", runs)
	}
	nLeaders := 0
	for _, l := range leaders {
		if l {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Errorf("%d leaders, want 1", nLeaders)
	}
}

// TestFlightGroupPanicContained: a panicking run becomes the flight's
// error, is counted in /stats, and clears its key, so the next call runs
// fresh instead of joining a flight that never finishes.
func TestFlightGroupPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, err, leader := s.flights.do(t.Context(), "k", func() ([]byte, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking run: err = %v, want an error naming the panic", err)
	}
	if !leader {
		t.Error("panicking run was not its own flight's leader")
	}
	if got := statusFor(err); got != http.StatusInternalServerError {
		t.Errorf("status for a panic = %d, want 500", got)
	}
	body, err, leader := s.flights.do(t.Context(), "k", func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || string(body) != "fresh" || !leader {
		t.Errorf("next do on the key = %q, %v, leader=%v; want a fresh run", body, err, leader)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Panics int64 `json:"panics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Panics != 1 {
		t.Errorf("/stats panics = %d, want 1", out.Panics)
	}
}

// TestStatsKeySet pins the key set of every /stats block on a server with
// every layer enabled: the LRU, singleflight, ingest counters, the disk
// store, the checkpoint pool and the replica ring.
func TestStatsKeySet(t *testing.T) {
	reps := newRing(t, 2, true)
	resp, err := http.Get(reps[0].ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return strings.Join(ks, " ")
	}
	if got, want := keys(out), "cache checkpoints ingest panics peers simulations singleflight store workers"; got != want {
		t.Errorf("top-level keys = %q, want %q", got, want)
	}
	blocks := map[string]string{
		"cache":        "alias_hits aliases capacity entries evictions ghost_hits ghosts hits misses pprof_encodes pprof_memo_hits",
		"singleflight": "deduplicated",
		"ingest":       "drop_reasons files_parsed mappings other_records parse_failures samples_accepted samples_dropped samples_total",
		"store": "bytes_read bytes_resident bytes_written corrupt_dropped dir entries hits max_bytes misses puts" +
			" sweeps swept_bytes swept_objects write_once_rejected",
		"checkpoints": "bytes captures entries evictions forks max_bytes",
		"peers":       "fallbacks objects_served peer_fetches proxied replicas self",
	}
	for name, want := range blocks {
		var block map[string]json.RawMessage
		if err := json.Unmarshal(out[name], &block); err != nil {
			t.Errorf("block %q: %v", name, err)
			continue
		}
		if got := keys(block); got != want {
			t.Errorf("block %q keys = %q, want %q", name, got, want)
		}
	}
}
