package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dprof/internal/core"
	"dprof/internal/pprofout"
)

// postPprof asks for a /profile document as pprof and returns the status,
// the X-DProf-Cache disposition and the body.
func postPprof(t *testing.T, ts *httptest.Server, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/profile?format=pprof", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-DProf-Cache"), raw
}

// libraryPprof is the library render of a request's document: the JSON
// a separate server answers, through core.ParseDocument and
// pprofout.EncodeDocument with dprofd's comment.
func libraryPprof(t *testing.T, body string) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	resp, raw := postProfile(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, raw)
	}
	doc, err := core.ParseDocument(raw)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := pprofout.EncodeDocument(doc, pprofout.Meta{Comments: []string{"dprofd: " + doc.Workload}})
	if err != nil {
		t.Fatal(err)
	}
	return gz
}

// pprofCounters reads the memo's two /stats counters.
func pprofCounters(t *testing.T, ts *httptest.Server) (encodes, memoHits int64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Cache struct {
			Encodes  int64 `json:"pprof_encodes"`
			MemoHits int64 `json:"pprof_memo_hits"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Cache.Encodes, out.Cache.MemoHits
}

// TestPprofMemo: the pprof form of a document is derived once and equals
// the library render whatever the disposition; an evicted document read
// back from the disk store takes its form back from its ghost instead of
// deriving it again; and concurrent requests for one address are
// race-clean.
func TestPprofMemo(t *testing.T) {
	const other = `{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	want := libraryPprof(t, quickProfile)
	// One LRU entry over a disk store: requesting the other document
	// evicts the first, which then comes back from disk.
	_, ts := newTestServer(t, Config{CacheEntries: 1, StoreDir: t.TempDir()})

	check := func(step, wantDisp string, wantEncodes, wantHits int64) {
		t.Helper()
		code, disp, gz := postPprof(t, ts, quickProfile)
		if code != http.StatusOK || disp != wantDisp {
			t.Fatalf("%s: status %d, disposition %q, want 200 %q: %s", step, code, disp, wantDisp, gz)
		}
		if !bytes.Equal(gz, want) {
			t.Errorf("%s: pprof body differs from the library render", step)
		}
		if encodes, hits := pprofCounters(t, ts); encodes != wantEncodes || hits != wantHits {
			t.Errorf("%s: pprof_encodes %d, pprof_memo_hits %d, want %d, %d", step, encodes, hits, wantEncodes, wantHits)
		}
	}
	check("first request", "miss", 1, 0)
	check("resident repeat", "hit", 1, 1)
	postProfileURL(t, ts.URL, other) // evicts the document from the LRU
	check("after eviction", "disk", 1, 2)
	check("re-promoted repeat", "hit", 1, 3)

	const n = 8
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, gz := postPprof(t, ts, quickProfile)
			if code != http.StatusOK || !bytes.Equal(gz, want) {
				t.Errorf("concurrent request: status %d, body equal %v", code, bytes.Equal(gz, want))
			}
		}()
	}
	wg.Wait()
	if encodes, hits := pprofCounters(t, ts); encodes != 1 || hits != 3+n {
		t.Errorf("concurrent resident requests: pprof_encodes %d, pprof_memo_hits %d, want 1, %d", encodes, hits, 3+n)
	}
}

// TestPprofMemoConcurrentFirstRequests: requests that join one flight
// ("dedup") and concurrent first pprof requests for a resident but not yet
// converted document all get the library render, race-clean, and leave it
// memoized.
func TestPprofMemoConcurrentFirstRequests(t *testing.T) {
	want := libraryPprof(t, quickProfile)
	s, ts := newTestServer(t, Config{Workers: 1})

	// Hold the only worker slot so the first request's flight waits and
	// the second joins it.
	s.sem <- struct{}{}
	inFlight := func() bool {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		return len(s.flights.m) > 0
	}
	disps := make([]string, 2)
	var wg sync.WaitGroup
	for i := range disps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, disp, gz := postPprof(t, ts, quickProfile)
			disps[i] = disp
			if code != http.StatusOK || !bytes.Equal(gz, want) {
				t.Errorf("%s request: status %d, body equal %v", disp, code, bytes.Equal(gz, want))
			}
		}()
		if i == 0 {
			for !inFlight() { // the first request leads the flight
				time.Sleep(time.Millisecond)
			}
		}
	}
	time.Sleep(100 * time.Millisecond) // let the second request join it
	<-s.sem
	wg.Wait()
	if !(disps[0] == "miss" && disps[1] == "dedup") {
		t.Errorf("dispositions = %q, want [miss dedup]", disps)
	}

	// Resident JSON, then a burst of first pprof requests.
	const other = `{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	wantOther := libraryPprof(t, other)
	postProfileURL(t, ts.URL, other)
	before, _ := pprofCounters(t, ts)
	const n = 8
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, gz := postPprof(t, ts, other)
			if code != http.StatusOK || !bytes.Equal(gz, wantOther) {
				t.Errorf("concurrent first request: status %d, body equal %v", code, bytes.Equal(gz, wantOther))
			}
		}()
	}
	wg.Wait()
	encodes, hits := pprofCounters(t, ts)
	if d := encodes - before; d < 1 || d > n {
		t.Errorf("burst of %d first requests derived %d times, want 1..%d", n, d, n)
	}
	if got := encodes - before + hits; got < n {
		t.Errorf("burst: encodes+memo hits grew by %d, want at least %d", got, n)
	}
	_, _, _ = postPprof(t, ts, other)
	if e, _ := pprofCounters(t, ts); e != encodes {
		t.Errorf("request after the burst derived again (%d -> %d encodes)", encodes, e)
	}
}

// TestPprofExportErrorNotMemoized: a document whose views lack dataprofile
// cannot convert; every pprof request for it fails with the same
// ExportError status, and nothing is memoized for it.
func TestPprofExportErrorNotMemoized(t *testing.T) {
	const noDataProfile = `{"workload":"falseshare","views":["missclass"],"measure_ms":1,"quick":true}`
	s, ts := newTestServer(t, Config{})
	for i := range 3 {
		code, _, body := postPprof(t, ts, noDataProfile)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte("pprof export")) {
			t.Fatalf("request %d: status %d, want 400 naming the export: %s", i, code, body)
		}
	}
	if encodes, hits := pprofCounters(t, ts); encodes != 0 || hits != 0 {
		t.Errorf("pprof_encodes %d, pprof_memo_hits %d, want 0, 0", encodes, hits)
	}
	var req ProfileRequest
	if err := json.Unmarshal([]byte(noDataProfile), &req); err != nil {
		t.Fatal(err)
	}
	k, err := s.normalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	el, ok := s.cache.items[k.address()]
	if !ok {
		t.Fatal("the document is not resident")
	}
	if gz := el.Value.(*lruItem).pprof; gz != nil {
		t.Errorf("a failed export was memoized (%d bytes)", len(gz))
	}
}
