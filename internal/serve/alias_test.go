package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dprof/internal/core"
)

// aliasCounters is the part of the /stats cache block the alias tests read.
type aliasCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Aliases   int64 `json:"aliases"`
	AliasHits int64 `json:"alias_hits"`
}

func readAliasCounters(t *testing.T, ts *httptest.Server) aliasCounters {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Cache aliasCounters `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Cache
}

// libraryKey normalizes a /profile body the way any server with the
// default config does.
func libraryKey(t *testing.T, body string) profileKey {
	t.Helper()
	var req ProfileRequest
	if err := decodeBody([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{MaxMeasureMs: 60_000}}
	k, err := s.normalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// libraryRender is the document for a normalized key, built, run cold and
// rendered by the library with no request path, cache or pool.
func libraryRender(t *testing.T, k profileKey) []byte {
	t.Helper()
	s := &Server{}
	sess, err := s.buildSession(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.Run()
	raw, err := renderProfile(sess, k)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// libraryDiff is the /diff document for two profile bodies, computed by
// the library from each side's library render.
func libraryDiff(t *testing.T, a, b string) []byte {
	t.Helper()
	var sides [2]core.DiffSide
	var exports [2]json.RawMessage
	for i, body := range [2]string{a, b} {
		k := libraryKey(t, body)
		ensureDataProfile(&k)
		doc, err := core.ParseDocument(libraryRender(t, k))
		if err != nil {
			t.Fatal(err)
		}
		if exports[i], err = doc.DataProfileExport(); err != nil {
			t.Fatal(err)
		}
		sides[i] = core.DiffSide{Workload: k.Workload, Address: k.address(), Summary: doc.Summary}
	}
	d, err := core.DiffExports(exports[0], exports[1])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(core.NewDiffDocument(sides[0], sides[1], d))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRequestAlias: a byte-identical repeat of a /profile or /diff request
// is answered by its spelling from the LRU entry it last resolved to, and
// every such answer is the library render byte for byte. An alias leaves
// the resident aliases with its entry (the entry's ghost keeps it, see
// TestGhostEntries), holds only the entry's latest spelling, and is never
// made for a request that failed, a stream, or a proxied answer the LRU
// does not hold.
func TestRequestAlias(t *testing.T) {
	// check posts body to uri and holds the answer to want and its
	// disposition.
	check := func(t *testing.T, ts *httptest.Server, step, uri, body, disposition string, want []byte) *http.Response {
		t.Helper()
		resp, got := postDiffOrProfile(t, ts.URL+uri, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, resp.StatusCode, got)
		}
		if d := resp.Header.Get("X-DProf-Cache"); d != disposition {
			t.Errorf("%s: disposition %q, want %q", step, d, disposition)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body differs from the library render", step)
		}
		return resp
	}
	counters := func(t *testing.T, ts *httptest.Server, step string, want aliasCounters) {
		t.Helper()
		if got := readAliasCounters(t, ts); got != want {
			t.Errorf("%s: cache counters %+v, want %+v", step, got, want)
		}
	}
	doc := append(libraryRender(t, libraryKey(t, quickProfile)), '\n')

	t.Run("repeats", func(t *testing.T) {
		const n = 5
		for _, c := range []struct {
			uri  string
			want []byte
		}{
			{"/profile", doc},
			{"/profile?format=pprof", libraryPprof(t, quickProfile)},
		} {
			_, ts := newTestServer(t, Config{})
			for i := range n {
				disposition := "hit"
				if i == 0 {
					disposition = "miss"
				}
				check(t, ts, c.uri, c.uri, quickProfile, disposition, c.want)
			}
			counters(t, ts, c.uri, aliasCounters{Hits: n - 1, Misses: 1, Aliases: 1, AliasHits: n - 1})
		}
		// A JSON request and a pprof request for the same document share
		// one alias: negotiation is applied after resolution.
		_, ts := newTestServer(t, Config{})
		check(t, ts, "json", "/profile", quickProfile, "miss", doc)
		check(t, ts, "pprof after json", "/profile?format=pprof", quickProfile, "hit", libraryPprof(t, quickProfile))
		counters(t, ts, "pprof after json", aliasCounters{Hits: 1, Misses: 1, Aliases: 1, AliasHits: 1})
	})

	t.Run("second spelling", func(t *testing.T) {
		a := `{"workload":"falseshare","options":{"padded":"false","seed":"0"},"measure_ms":1,"quick":true}`
		k := libraryKey(t, a)
		views := slices.Clone(k.Views)
		slices.Reverse(views)
		spelled, _ := json.Marshal(views)
		b := `{"quick":true,"measure_ms":1,"views":` + string(spelled) + `,"options":{"seed":"0","padded":"false"},"workload":"falseshare"}`
		if kb := libraryKey(t, b); kb.address() != k.address() {
			t.Fatalf("spellings address %s and %s, want one key", k.address(), kb.address())
		}
		want := append(libraryRender(t, k), '\n')
		_, ts := newTestServer(t, Config{})
		steps := []struct {
			name, body, disposition string
			after                   aliasCounters
		}{
			{"first spelling", a, "miss", aliasCounters{Misses: 1, Aliases: 1}},
			{"second spelling takes the full path", b, "hit", aliasCounters{Hits: 1, Misses: 1, Aliases: 1}},
			{"second spelling repeated", b, "hit", aliasCounters{Hits: 2, Misses: 1, Aliases: 1, AliasHits: 1}},
			{"first spelling was replaced", a, "hit", aliasCounters{Hits: 3, Misses: 1, Aliases: 1, AliasHits: 1}},
			{"first spelling re-aliased", a, "hit", aliasCounters{Hits: 4, Misses: 1, Aliases: 1, AliasHits: 2}},
		}
		for _, st := range steps {
			check(t, ts, st.name, "/profile", st.body, st.disposition, want)
			counters(t, ts, st.name, st.after)
		}
	})

	t.Run("eviction drops the alias", func(t *testing.T) {
		other := strings.Replace(quickProfile, `"measure_ms":1`, `"measure_ms":2`, 1)
		otherDoc := append(libraryRender(t, libraryKey(t, other)), '\n')
		_, ts := newTestServer(t, Config{CacheEntries: 1, StoreDir: t.TempDir()})
		check(t, ts, "first", "/profile", quickProfile, "miss", doc)
		check(t, ts, "repeat", "/profile", quickProfile, "hit", doc)
		check(t, ts, "evicting", "/profile", other, "miss", otherDoc)
		counters(t, ts, "evicting", aliasCounters{Hits: 1, Misses: 2, Aliases: 1, AliasHits: 1})
		// The evicted entry's ghost keeps the spelling: the repeat is read
		// back from disk, and the re-admitted entry takes the alias back.
		check(t, ts, "after eviction", "/profile", quickProfile, "disk", doc)
		counters(t, ts, "after eviction", aliasCounters{Hits: 1, Misses: 2, Aliases: 1, AliasHits: 1})
		check(t, ts, "re-aliased", "/profile", quickProfile, "hit", doc)
		counters(t, ts, "re-aliased", aliasCounters{Hits: 2, Misses: 2, Aliases: 1, AliasHits: 2})
	})

	t.Run("failures are never aliased", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		for _, body := range []string{
			// malformed
			`{"workload":"falseshare",`,
			// 400s from normalization
			`{"workload":"falseshare","sets":1000,"quick":true}`,
			`{"workload":"falseshare","views":["nope"],"quick":true}`,
			// normalizes, then fails building the workload (a miss)
			`{"workload":"numaremote","options":{"sockets":"3","cores-per-socket":"4"},"measure_ms":1,"quick":true}`,
		} {
			for range 2 {
				if resp, _ := postDiffOrProfile(t, ts.URL+"/profile", body); resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
				}
			}
		}
		counters(t, ts, "after failures", aliasCounters{Misses: 2})
	})

	t.Run("streams bypass the alias", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		check(t, ts, "first", "/profile", quickProfile, "miss", doc)
		if !bytes.Equal(streamResult(t, ts, quickProfile), doc) {
			t.Error("stream result differs from the library render")
		}
		counters(t, ts, "stream", aliasCounters{Hits: 1, Misses: 1, Aliases: 1})
	})

	t.Run("diff", func(t *testing.T) {
		a := `{"workload":"falseshare","views":["dataprofile"],"rate":100000,"measure_ms":1,"quick":true}`
		b := `{"workload":"falseshare","options":{"padded":"true"},"views":["dataprofile"],"rate":100000,"measure_ms":1,"quick":true}`
		body := `{"a":` + a + `,"b":` + b + `}`
		want := append(libraryDiff(t, a, b), '\n')
		_, ts := newTestServer(t, Config{})
		check(t, ts, "first diff", "/diff", body, "miss", want)
		before := readAliasCounters(t, ts)
		check(t, ts, "repeated diff", "/diff", body, "hit", want)
		// pprof negotiation does not apply to a diff, on an alias hit too.
		resp := check(t, ts, "diff as pprof", "/diff?format=pprof", body, "hit", want)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("diff as pprof: Content-Type %q, want application/json", ct)
		}
		after := readAliasCounters(t, ts)
		if after.AliasHits != before.AliasHits+2 || after.Hits != before.Hits+2 || after.Misses != before.Misses {
			t.Errorf("diff repeats: counters %+v after %+v, want two more alias hits", after, before)
		}
	})
}
