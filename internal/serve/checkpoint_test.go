package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// warmReqs vary only the measured length (and one adds windowing), so on a
// warm-start server they all fork from a single checkpoint.
var warmReqs = []string{
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":2,"quick":true}`,
	`{"workload":"falseshare","views":["dataprofile"],"measure_ms":3,"quick":true}`,
}

// TestProfileWarmForkMatchesCold is the serving half of the warm-start
// correctness bar: every response forked from a pooled checkpoint must be
// byte-identical to the same request simulated cold, and the pool must have
// captured one warmup for the whole family.
func TestProfileWarmForkMatchesCold(t *testing.T) {
	_, tsCold := newTestServer(t, Config{CheckpointPoolBytes: -1})
	warmSrv, tsWarm := newTestServer(t, Config{})
	if warmSrv.ckpts == nil {
		t.Fatal("checkpoint pool not enabled by default")
	}
	for _, req := range warmReqs {
		respCold, bodyCold := postProfile(t, tsCold, req)
		respWarm, bodyWarm := postProfile(t, tsWarm, req)
		if respCold.StatusCode != http.StatusOK || respWarm.StatusCode != http.StatusOK {
			t.Fatalf("status cold=%d warm=%d for %s", respCold.StatusCode, respWarm.StatusCode, req)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("forked profile differs from cold for %s:\n--- cold ---\n%s\n--- warm ---\n%s",
				req, bodyCold, bodyWarm)
		}
	}

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
	_, tsCold := newTestServer(t, Config{CheckpointPoolBytes: -1})
	_, tsWarm := newTestServer(t, Config{})
	for _, req := range []string{
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":2,"quick":true}`,
		`{"workload":"falseshare","views":["dataprofile"],"options":{"window-ms":"1"},"measure_ms":3,"quick":true}`,
	} {
		respCold, bodyCold := postProfile(t, tsCold, req)
		respWarm, bodyWarm := postProfile(t, tsWarm, req)
		if respCold.StatusCode != http.StatusOK || respWarm.StatusCode != http.StatusOK {
			t.Fatalf("status cold=%d warm=%d for %s", respCold.StatusCode, respWarm.StatusCode, req)
		}
		if !bytes.Equal(bodyCold, bodyWarm) {
			t.Errorf("windowed forked profile differs from cold for %s", req)
		}
	}
}

// TestCheckpointPoolEviction: a budget smaller than any checkpoint still
// serves correct responses — capture, fork, evict, recapture — and the
// accounting reflects it.
func TestCheckpointPoolEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CheckpointPoolBytes: 1})
	for _, req := range warmReqs[:2] {
		if resp, _ := postProfile(t, ts, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, req)
		}
	}
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
