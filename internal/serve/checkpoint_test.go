package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// warmReqs vary only the measured length (and one adds windowing), so on a
// warm-start server they all fork from a single checkpoint.
var warmReqs = []string{
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":2,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":3,"quick":true}`,
}

// coldProfile is the cold reference for a /profile body: the request
// normalized, built and run as one uncheckpointed session, and rendered
// through the library, newline-terminated as the server writes it.
func coldProfile(t *testing.T, s *Server, body string) []byte {
	t.Helper()
	var req ProfileRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	k, err := s.normalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.buildSession(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Run()
	doc, err := renderProfile(sess, k)
	if err != nil {
		t.Fatal(err)
	}
	return append(doc, '\n')
}

// checkMatchesCold posts each request and requires a 200 whose body equals
// the cold library render of the same request.
func checkMatchesCold(t *testing.T, s *Server, ts *httptest.Server, reqs ...string) {
	t.Helper()
	for _, req := range reqs {
		resp, got := postProfile(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s: %s", resp.StatusCode, req, got)
		}
		if want := coldProfile(t, s, req); !bytes.Equal(got, want) {
			t.Errorf("forked profile differs from cold for %s:\n--- cold ---\n%s\n--- forked ---\n%s",
				req, want, got)
		}
	}
}

// TestProfileWarmForkMatchesCold is the serving half of the warm-start
// correctness bar: every response forked from a pooled checkpoint must be
// byte-identical to the same request simulated cold, and the pool must have
// captured one warmup for the whole family.
func TestProfileWarmForkMatchesCold(t *testing.T) {
	warmSrv, tsWarm := newTestServer(t, Config{})
	checkMatchesCold(t, warmSrv, tsWarm, warmReqs...)

	resp, err := http.Get(tsWarm.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Checkpoints struct {
			Entries   int    `json:"entries"`
			Captures  uint64 `json:"captures"`
			Forks     uint64 `json:"forks"`
			Bytes     int64  `json:"bytes"`
			MaxBytes  int64  `json:"max_bytes"`
			Evictions uint64 `json:"evictions"`
		} `json:"checkpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ck := stats.Checkpoints
	if ck.Captures != 1 {
		t.Errorf("captures = %d, want 1 (one warmup for the family)", ck.Captures)
	}
	if ck.Forks != uint64(len(warmReqs)) {
		t.Errorf("forks = %d, want %d", ck.Forks, len(warmReqs))
	}
	if ck.Entries != 1 || ck.Bytes <= 0 {
		t.Errorf("entries = %d bytes = %d, want one resident checkpoint", ck.Entries, ck.Bytes)
	}
	if ck.MaxBytes != 256<<20 {
		t.Errorf("max_bytes = %d, want the 256 MiB default", ck.MaxBytes)
	}
}

// TestProfileWarmWindowedMatchesCold covers the mid-window case: a windowed
// (but not streamed) session checkpoints at the warmup boundary with the
// window machinery already started, and its forks must still render the
// identical document.
func TestProfileWarmWindowedMatchesCold(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	checkMatchesCold(t, s, ts,
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":2,"quick":true}`,
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":3,"quick":true}`)
	if st := s.ckpts.Stats(); st.Captures != 1 || st.Forks != 2 {
		t.Errorf("pool stats = %+v, want 1 capture and 2 forks", st)
	}
}

// TestNewRejectsNegativeCheckpointPool: the pool cannot be switched off, so
// a negative budget is a configuration error.
func TestNewRejectsNegativeCheckpointPool(t *testing.T) {
	if s, err := New(Config{CheckpointPoolBytes: -1}); err == nil {
		s.Shutdown()
		t.Fatal("New accepted a negative checkpoint pool budget")
	}
}

// TestCheckpointPoolEviction: a budget smaller than any checkpoint still
// serves correct responses — capture, fork, evict, recapture — and the
// accounting reflects it.
func TestCheckpointPoolEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CheckpointPoolBytes: 1})
	checkMatchesCold(t, s, ts, warmReqs[:2]...)
	st := s.ckpts.Stats()
	if st.Captures != 2 || st.Forks != 2 || st.Evictions != 2 {
		t.Errorf("captures/forks/evictions = %d/%d/%d, want 2/2/2 (every capture busts the 1-byte budget)",
			st.Captures, st.Forks, st.Evictions)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("entries/bytes = %d/%d, want an empty pool", st.Entries, st.Bytes)
	}
}

// TestProfileRejectsParallelShards: the removed parallel-shards option is an
// unknown option like any other. The request fails validation with a 400
// naming the workload's declared options, before it reaches a simulation or
// the checkpoint pool.
func TestProfileRejectsParallelShards(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.ckpts.Stats()
	resp, body := postProfile(t, ts,
		`{"workload":"falseshare","views":["dataprofile"],"options":{"parallel-shards":"2"},"measure_ms":1,"quick":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"parallel-shards", "declared options: padded, seed, window-ms"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("400 body does not contain %q: %s", want, body)
		}
	}
	if n := s.Simulations(); n != 0 {
		t.Errorf("simulations = %d, want 0", n)
	}
	if after := s.ckpts.Stats(); after != before {
		t.Errorf("pool counters moved: before %+v, after %+v", before, after)
	}
}

// parkedBytes sums, over the pool's checkpoints, the releasable arrays
// their machines hold: everything Park drops (sim.Machine.DenseBytes), and
// of that the profilers' and the allocators' share.
func parkedBytes(s *Server) (entries int, dense, prof, alloc uint64) {
	s.ckpts.Each(func(cp *core.Checkpoint) {
		entries++
		dense += cp.Runnable().Machine().DenseBytes()
		prof += cp.Session().Profiler().DenseBytes()
		alloc += cp.Runnable().Alloc().DenseBytes()
	})
	return entries, dense, prof, alloc
}

// TestProfileParksPoolEntries: once a profile is rendered, its pool entry is
// parked, so that no idle entry's machine holds a dense cache array, a
// profiler sample map, FreeAt column, unshared record block or live index,
// or an allocator page table or slab freelist. A parked entry's next fork
// restores into recycled arrays and serves bytes identical to a cold
// library render of the same request.
// Eight conflict seeds are eight warm addresses; numaremote adds a
// two-socket entry, whose working-set view reads the live hierarchy's
// per-socket occupancy and so must render before the park.
func TestProfileParksPoolEntries(t *testing.T) {
	var reqs []func(ms int) string
	for seed := 1; seed <= 8; seed++ {
		reqs = append(reqs, func(ms int) string {
			return fmt.Sprintf(`{"workload":"conflict","views":["dataprofile","missclass","workingset"],`+
				`"options":{"seed":"%d"},"measure_ms":%d,"quick":true}`, seed, ms)
		})
	}
	reqs = append(reqs, func(ms int) string {
		return fmt.Sprintf(`{"workload":"numaremote","views":["dataprofile","workingset"],"measure_ms":%d,"quick":true}`, ms)
	})
	s, ts := newTestServer(t, Config{})
	for _, req := range reqs {
		checkMatchesCold(t, s, ts, req(1))
	}
	if entries, dense, prof, alloc := parkedBytes(s); entries != len(reqs) || dense != 0 || prof != 0 || alloc != 0 {
		t.Fatalf("%d pool entries hold %d releasable bytes (%d profiler, %d allocator), want %d entries holding none",
			entries, dense, prof, alloc, len(reqs))
	}

	for _, req := range reqs {
		checkMatchesCold(t, s, ts, req(2))
	}
	n := uint64(len(reqs))
	if st := s.ckpts.Stats(); st.Captures != n || st.Forks != 2*n || st.Evictions != 0 {
		t.Errorf("pool stats = %+v, want %d captures, %d forks, no evictions", st, n, 2*n)
	}
	if entries, dense, prof, alloc := parkedBytes(s); entries != len(reqs) || dense != 0 || prof != 0 || alloc != 0 {
		t.Errorf("after the re-requests, %d pool entries hold %d releasable bytes (%d profiler, %d allocator), want %d holding none",
			entries, dense, prof, alloc, len(reqs))
	}
}

// streamResult posts body to /profile as an NDJSON stream and returns its
// result event's document, newline-terminated as a plain response is.
func streamResult(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp, got := postDiffOrProfile(t, ts.URL+"/profile?stream=ndjson", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d: %s", resp.StatusCode, got)
	}
	for _, line := range bytes.Split(got, []byte("\n")) {
		var ev struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if ev.Event == "result" {
			return append(ev.Data, '\n')
		}
	}
	t.Fatalf("stream ended without a result: %s", got)
	return nil
}

// TestProfileStreamedUnwindowedForks: an unwindowed key has no window
// stream, so a streamed request for it warms the checkpoint pool like a
// plain one, and a plain request for another measured length forks from
// that checkpoint. Both bodies are the library render.
func TestProfileStreamedUnwindowedForks(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	streamed := `{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	plain := `{"workload":"falseshare","views":["dataprofile"],"measure_ms":2,"quick":true}`
	if got, want := streamResult(t, ts, streamed), coldProfile(t, s, streamed); !bytes.Equal(got, want) {
		t.Errorf("streamed result differs from the library render:\n--- cold ---\n%s\n--- streamed ---\n%s", want, got)
	}
	checkMatchesCold(t, s, ts, plain)
	if st := s.ckpts.Stats(); st.Captures != 1 || st.Forks != 2 {
		t.Errorf("pool stats = %+v, want 1 capture and 2 forks", st)
	}
}

// TestDataProfileSessionsKeepNoRecords: a key whose views read no address
// records builds a session that keeps none, and for every registered
// workload its {dataprofile} document is byte-identical to a recording
// session's.
func TestDataProfileSessionsKeepNoRecords(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, name := range workload.Names() {
		req := ProfileRequest{Workload: name, Views: []string{"dataprofile"}, MeasureMs: 1}
		k, err := s.normalize(&req)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := s.buildSession(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess.Run()
		got, err := renderProfile(sess, k)
		if err != nil {
			t.Fatal(err)
		}
		if n := sess.Profiler().AddressSet().Len(); n != 0 {
			t.Errorf("%s: session holds %d address records, want 0", name, n)
		}

		w, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := workload.NewConfig(w, k.Options)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := workload.BuildInstance(w, cfg.WithQuick(k.Quick))
		if err != nil {
			t.Fatal(err)
		}
		pcfg := core.DefaultConfig()
		pcfg.SampleRate = k.Rate
		rec, err := core.NewSession(inst, core.SessionConfig{
			Profiler: pcfg, Views: k.Views, TypeName: k.Type, Sets: k.Sets,
			Warmup: k.WarmupCycles, Measure: k.MeasureCycles,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.Run()
		if rec.Profiler().AddressSet().Len() == 0 {
			t.Errorf("%s: the recording session kept no records", name)
		}
		want, err := renderProfile(rec, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the no-records document differs from the recording session's", name)
		}
	}
}
