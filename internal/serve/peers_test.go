package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/perfin"
)

// replica is one fleet member under test: the Server plus its listener.
type replica struct {
	s  *Server
	ts *httptest.Server
}

// newRing builds an n-replica fleet over httptest listeners, each with its
// own store directory when withStore is set, and wires the consistent-hash
// ring once every URL is known.
func newRing(t *testing.T, n int, withStore bool) []replica {
	t.Helper()
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{Workers: 2}
		if withStore {
			cfgs[i].StoreDir = t.TempDir()
		}
	}
	return newFleet(t, cfgs...)
}

// newFleet starts one replica per config and joins them in one ring.
func newFleet(t *testing.T, cfgs ...Config) []replica {
	t.Helper()
	reps := make([]replica, len(cfgs))
	urls := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			s.Shutdown()
			ts.Close()
		})
		reps[i] = replica{s: s, ts: ts}
		urls[i] = ts.URL
	}
	for _, r := range reps {
		if err := r.s.SetPeers(r.ts.URL, urls); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// seedBody builds the standard cheap request parameterized by seed, so
// tests can hunt for an address owned by a chosen replica.
func seedBody(seed int) string {
	return fmt.Sprintf(`{"workload":"falseshare","options":{"seed":"%d"},"views":["dataprofile"],"measure_ms":1,"quick":true}`, seed)
}

// addressOf normalizes a request body through a replica and returns its
// content address (normalization is deterministic, so any replica works).
func addressOf(t *testing.T, s *Server, seed int) string {
	t.Helper()
	req := ProfileRequest{
		Workload:  "falseshare",
		Options:   map[string]string{"seed": fmt.Sprint(seed)},
		Views:     []string{"dataprofile"},
		MeasureMs: 1,
	}
	quick := true
	req.Quick = &quick
	k, err := s.normalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	return k.address()
}

// seedOwnedBy hunts for a seed whose content address the given replica
// owns on the ring.
func seedOwnedBy(t *testing.T, reps []replica, owner int) int {
	t.Helper()
	for seed := 1; seed < 200; seed++ {
		addr := addressOf(t, reps[0].s, seed)
		if reps[0].s.peers.owner(addr) == reps[owner].ts.URL {
			return seed
		}
	}
	t.Fatal("no seed found owned by replica")
	return 0
}

func fleetSimulations(reps []replica) int64 {
	var n int64
	for _, r := range reps {
		n += r.s.Simulations()
	}
	return n
}

// TestRingSpreadsOwnership: on fixed three-replica fleets every replica
// owns at least a fifth of 3,000 content addresses (a third is even), so the
// ring's balance does not hang on the ports a fleet happens to bind. The
// replicas of a live fleet must also agree on every address's owner.
func TestRingSpreadsOwnership(t *testing.T) {
	const addrs = 3000
	for _, fleet := range [][]string{
		{"http://127.0.0.1:7071", "http://127.0.0.1:7072", "http://127.0.0.1:7073"},
		{"http://127.0.0.1:34567", "http://127.0.0.1:40123", "http://127.0.0.1:45678"},
		{"http://10.0.0.1:7071", "http://10.0.0.2:7071", "http://10.0.0.3:7071"},
		{"http://dprofd-0:7071", "http://dprofd-1:7071", "http://dprofd-2:7071"},
		{"https://a.example.com", "https://b.example.com", "https://c.example.com"},
	} {
		p, err := newPeerSet(fleet[0], fleet)
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]int{}
		for i := range addrs {
			owned[p.owner(contentAddress("profile/", i))]++
		}
		for _, r := range fleet {
			if owned[r] < addrs/5 {
				t.Errorf("fleet %v: %s owns %d of %d addresses, want at least %d: %v",
					fleet, r, owned[r], addrs, addrs/5, owned)
			}
		}
	}

	reps := newRing(t, 3, false)
	for seed := 0; seed < 10; seed++ {
		addr := addressOf(t, reps[0].s, seed)
		want := reps[0].s.peers.owner(addr)
		for _, r := range reps[1:] {
			if got := r.s.peers.owner(addr); got != want {
				t.Fatalf("ring disagreement for %s: %s vs %s", addr, got, want)
			}
		}
	}
}

// TestFleetWideSingleflight is the distributed-dedup acceptance test: N
// identical concurrent requests spread across all three replicas produce
// exactly one simulation fleet-wide and byte-identical responses.
func TestFleetWideSingleflight(t *testing.T) {
	reps := newRing(t, 3, false)
	body := seedBody(1)
	const perReplica = 3
	n := perReplica * len(reps)
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := reps[i%len(reps)].ts
			resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
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
	if got := fleetSimulations(reps); got != 1 {
		t.Errorf("fleet simulations = %d, want 1 for %d identical concurrent requests across %d replicas",
			got, n, len(reps))
	}
}

// TestRoutedVsDirectBytes: the same request through a non-owning replica
// and directly to the owner answers with identical wire bytes, and the
// proxied copy warms the non-owner's LRU.
func TestRoutedVsDirectBytes(t *testing.T) {
	reps := newRing(t, 3, false)
	seed := seedOwnedBy(t, reps, 2)
	addr := addressOf(t, reps[0].s, seed)
	owner, nonOwner := reps[2], reps[0]
	if nonOwner.s.peers.owner(addr) != owner.ts.URL {
		t.Fatal("test setup: owner mismatch")
	}

	post := func(ts *httptest.Server) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(seedBody(seed)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	respRouted, routed := post(nonOwner.ts)
	if respRouted.StatusCode != 200 {
		t.Fatalf("routed status %d: %s", respRouted.StatusCode, routed)
	}
	if got := respRouted.Header.Get(replicaHeader); got != owner.ts.URL {
		t.Errorf("routed response replica header = %q, want %q", got, owner.ts.URL)
	}
	if d := respRouted.Header.Get("X-DProf-Cache"); !strings.HasPrefix(d, "proxy") {
		t.Errorf("routed disposition = %q, want proxy*", d)
	}
	if owner.s.Simulations() != 1 || nonOwner.s.Simulations() != 0 {
		t.Errorf("simulations owner=%d nonOwner=%d, want 1/0",
			owner.s.Simulations(), nonOwner.s.Simulations())
	}
	if nonOwner.s.peerProxied.Load() != 1 {
		t.Errorf("proxied = %d, want 1", nonOwner.s.peerProxied.Load())
	}

	respDirect, direct := post(owner.ts)
	if !bytes.Equal(routed, direct) {
		t.Error("routed and direct responses differ")
	}
	if d := respDirect.Header.Get("X-DProf-Cache"); d != "hit" {
		t.Errorf("direct repeat disposition = %q, want hit", d)
	}

	// The proxied body landed in the non-owner's LRU: a repeat there is a
	// local hit, byte-identical, no second proxy hop.
	respLocal, local := post(nonOwner.ts)
	if d := respLocal.Header.Get("X-DProf-Cache"); d != "hit" {
		t.Errorf("non-owner repeat disposition = %q, want hit", d)
	}
	if !bytes.Equal(routed, local) {
		t.Error("non-owner repeat differs from routed response")
	}
	if nonOwner.s.peerProxied.Load() != 1 {
		t.Error("non-owner repeat proxied again instead of serving locally")
	}
}

// TestPeerDeathFallsBackToLocalSimulate: when the owning replica is gone,
// a non-owner serves the request by simulating locally instead of failing.
func TestPeerDeathFallsBackToLocalSimulate(t *testing.T) {
	reps := newRing(t, 3, false)
	seed := seedOwnedBy(t, reps, 1)
	reps[1].ts.Close() // the owner dies

	resp, err := http.Post(reps[0].ts.URL+"/profile", "application/json", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d with dead owner: %s", resp.StatusCode, raw)
	}
	if n := reps[0].s.Simulations(); n != 1 {
		t.Errorf("local simulations = %d, want 1 (fallback)", n)
	}
	if n := reps[0].s.peerFallbacks.Load(); n != 1 {
		t.Errorf("fallbacks = %d, want 1", n)
	}
}

// TestPeerFetchStoredDocument: an owner whose disk is cold adopts the
// stored document from a peer's store instead of re-simulating — the
// ring-membership-changed path.
func TestPeerFetchStoredDocument(t *testing.T) {
	reps := newRing(t, 2, true)
	seed := seedOwnedBy(t, reps, 1)
	holder, owner := reps[0], reps[1]

	// Force the non-owner to produce and store the document locally: a
	// routed request never re-routes, which is exactly the situation a
	// replica that owned this address under an older ring was in.
	req, err := http.NewRequest(http.MethodPost, holder.ts.URL+"/profile", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(routedHeader, "1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	want, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("holder status %d: %s", resp.StatusCode, want)
	}
	if holder.s.Simulations() != 1 {
		t.Fatalf("holder simulations = %d, want 1", holder.s.Simulations())
	}

	// The owner, LRU and disk cold, must peer-fetch instead of simulating.
	resp2, err := http.Post(owner.ts.URL+"/profile", "application/json", strings.NewReader(seedBody(seed)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != 200 {
		t.Fatalf("owner status %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Error("peer-fetched document differs from the original")
	}
	if d := resp2.Header.Get("X-DProf-Cache"); d != "peer" {
		t.Errorf("disposition = %q, want peer", d)
	}
	if n := owner.s.Simulations(); n != 0 {
		t.Errorf("owner simulations = %d, want 0 (peer fetch)", n)
	}
	if n := owner.s.peerFetches.Load(); n != 1 {
		t.Errorf("peer fetches = %d, want 1", n)
	}
	if n := holder.s.objectsServed.Load(); n != 1 {
		t.Errorf("holder objects served = %d, want 1", n)
	}
	// The adopted document persisted: the owner's own store now has it.
	if owner.s.store.Len() != 1 {
		t.Errorf("owner store entries = %d, want 1", owner.s.store.Len())
	}
}

// TestObjectEndpoint: /object serves stored documents without ever
// simulating, and misses are 404.
func TestObjectEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	resp, err := http.Get(ts.URL + "/object/profile/feedfacedeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("cold /object status = %d, want 404", resp.StatusCode)
	}

	_, want := postProfile(t, ts, quickProfile)
	addr := addressOf(t, s, 0)
	resp2, err := http.Get(ts.URL + "/object/" + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	got, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm /object status = %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Error("/object bytes differ from the POST /profile response")
	}
	if n := s.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1 (object never simulates)", n)
	}
}

func TestSetPeersRejectsBadReplicas(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, bad := range []string{"", "not-a-url", "ftp://x", "http://"} {
		if err := s.SetPeers("http://a:1", []string{bad}); err == nil {
			t.Errorf("SetPeers accepted replica %q", bad)
		}
		if err := s.SetPeers(bad, []string{"http://a:1"}); err == nil {
			t.Errorf("SetPeers accepted self %q", bad)
		}
	}
}

// TestIngestPprofOnNonOwner: a non-owner forwards only the query fields
// that shape the ingest key, caches the owner's canonical JSON document, and
// converts to pprof at its own edge. A pprof request through the non-owner
// succeeds, and a later JSON request there gets the JSON document back.
func TestIngestPprofOnNonOwner(t *testing.T) {
	reps := newRing(t, 2, false)
	capture := perfin.FixtureBytes()
	const q = "views=dataprofile,missclass"
	k, err := normalizeIngest(httptest.NewRequest(http.MethodPost, "/ingest?"+q, nil), capture)
	if err != nil {
		t.Fatal(err)
	}
	nonOwner, owner := reps[0], reps[1]
	if reps[0].s.peers.owner(k.address()) == reps[0].ts.URL {
		nonOwner, owner = reps[1], reps[0]
	}

	resp, body := postIngest(t, nonOwner.ts, "/ingest?format=pprof&"+q, capture, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof via non-owner: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("pprof content type = %q", ct)
	}
	if _, err := gzip.NewReader(bytes.NewReader(body)); err != nil {
		t.Errorf("pprof body is not gzip: %v", err)
	}
	if got := resp.Header.Get(replicaHeader); got != owner.ts.URL {
		t.Errorf("replica header = %q, want the owner %q", got, owner.ts.URL)
	}

	resp2, doc := postIngest(t, nonOwner.ts, "/ingest?"+q, capture, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("JSON via non-owner: status %d: %s", resp2.StatusCode, doc)
	}
	if d := resp2.Header.Get("X-DProf-Cache"); d != "hit" {
		t.Errorf("JSON repeat disposition = %q, want hit", d)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON repeat content type = %q", ct)
	}
	if _, err := core.ParseDocument(doc); err != nil {
		t.Fatalf("non-owner cached a non-document: %v", err)
	}
	_, direct := postIngest(t, owner.ts, "/ingest?"+q, capture, nil)
	if !bytes.Equal(doc, direct) {
		t.Error("non-owner document differs from the owner's")
	}
}

// TestDiffSidesRouteToOwner: each /diff side is a profile request like any
// other, so it runs on the replica that owns its address. The side request
// forwarded to the owner carries the dataprofile view the diff added.
func TestDiffSidesRouteToOwner(t *testing.T) {
	reps := newRing(t, 3, false)
	side := func(seed int) string {
		return fmt.Sprintf(`{"workload":"falseshare","options":{"seed":"%d"},"views":["workingset"],"measure_ms":1,"quick":true}`, seed)
	}
	seed := 0
	for s := 1; seed == 0 && s < 200; s++ {
		var req ProfileRequest
		if err := json.Unmarshal([]byte(side(s)), &req); err != nil {
			t.Fatal(err)
		}
		k, err := reps[0].s.normalize(&req)
		if err != nil {
			t.Fatal(err)
		}
		ensureDataProfile(&k)
		if reps[0].s.peers.owner(k.address()) == reps[2].ts.URL {
			seed = s
		}
	}
	if seed == 0 {
		t.Fatal("no seed found owned by replica 2")
	}
	owner, nonOwner := reps[2], reps[0]
	diff := fmt.Sprintf(`{"a":%s,"b":%s}`, side(seed), side(seed))

	resp, routed := postDiff(t, nonOwner.ts.URL, diff)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff via non-owner: status %d: %s", resp.StatusCode, routed)
	}
	if owner.s.Simulations() != 1 || nonOwner.s.Simulations() != 0 || reps[1].s.Simulations() != 0 {
		t.Errorf("simulations owner=%d nonOwner=%d other=%d, want 1/0/0",
			owner.s.Simulations(), nonOwner.s.Simulations(), reps[1].s.Simulations())
	}
	if n := nonOwner.s.peerProxied.Load(); n != 1 {
		t.Errorf("non-owner proxied %d side requests, want 1", n)
	}

	withDataProfile := fmt.Sprintf(`{"workload":"falseshare","options":{"seed":"%d"},"views":["dataprofile","workingset"],"measure_ms":1,"quick":true}`, seed)
	presp, _ := postProfile(t, owner.ts, withDataProfile)
	if d := presp.Header.Get("X-DProf-Cache"); d != "hit" {
		t.Errorf("owner's /profile of the side: disposition %q, want hit", d)
	}

	resp2, direct := postDiff(t, owner.ts.URL, diff)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("diff on owner: status %d: %s", resp2.StatusCode, direct)
	}
	if !bytes.Equal(routed, direct) {
		t.Error("diff via a non-owner differs from the same diff on the owner")
	}
	if n := fleetSimulations(reps); n != 1 {
		t.Errorf("fleet simulations = %d, want 1", n)
	}
}

// TestForwardedRequestsNormalizeToSameKey: the request a non-owner rebuilds
// from a normalized key normalizes back to that key on the owner, so both
// replicas agree on the content address.
func TestForwardedRequestsNormalizeToSameKey(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, name := range workload.Names() {
		quick := true
		for _, req := range []ProfileRequest{
			{Workload: name},
			{Workload: name, Quick: &quick, MeasureMs: 2, Sets: 3, Rate: 12000},
			{Workload: name, Views: []string{"workingset", "missclass"}, Options: map[string]string{"window-ms": "1"}},
		} {
			k, err := s.normalize(&req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ensureDataProfile(&k)
			fwd := k.request()
			back, err := s.normalize(&fwd)
			if err != nil {
				t.Fatalf("%s: forwarded request rejected: %v", name, err)
			}
			if back.address() != k.address() {
				t.Errorf("%s: forwarded key %+v, want %+v", name, back, k)
			}
		}
	}

	capture := perfin.FixtureBytes()
	for _, q := range []string{"", "views=dataprofile", "views=missclass,dataprofile&type=ring_buffer", "views=,", "format=pprof&views=workingset,workingset"} {
		k, err := normalizeIngest(httptest.NewRequest(http.MethodPost, "/ingest?"+q, nil), capture)
		if err != nil {
			t.Fatal(err)
		}
		back, err := normalizeIngest(httptest.NewRequest(http.MethodPost, k.uri(), nil), capture)
		if err != nil {
			t.Fatal(err)
		}
		if back.address() != k.address() {
			t.Errorf("?%s: forwarded as %s, key %+v, want %+v", q, k.uri(), back, k)
		}
		if strings.Contains(k.uri(), "format") {
			t.Errorf("?%s: forwarded URI %s carries the client's format", q, k.uri())
		}
	}
}
