package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ghostCounters is the part of the /stats cache block the ghost test
// reads.
type ghostCounters struct {
	Hits      int64 `json:"hits"`
	AliasHits int64 `json:"alias_hits"`
	Encodes   int64 `json:"pprof_encodes"`
	MemoHits  int64 `json:"pprof_memo_hits"`
	Ghosts    int64 `json:"ghosts"`
	GhostHits int64 `json:"ghost_hits"`
}

func readGhostCounters(t *testing.T, url string) ghostCounters {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Cache ghostCounters `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Cache
}

// TestGhostEntries: an evicted entry that derived a pprof form or an alias
// leaves a ghost. Re-admitting its address takes back the alias, and the
// pprof form only when the body read back has the sum the form was derived
// from; a request spelled like the ghost's alias is read back without
// decoding it, unless it streams or another replica owns its address.
// Every answer is the library render byte for byte, and the ghosts never
// outnumber the LRU's entries.
func TestGhostEntries(t *testing.T) {
	const (
		other = `{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
		third = `{"workload":"falseshare","views":["dataprofile"],"measure_ms":2,"quick":true}`
		// respelled is quickProfile's request with its fields reordered.
		respelled = `{"quick":true,"measure_ms":1,"views":["dataprofile"],"workload":"falseshare"}`
	)
	key := libraryKey(t, quickProfile)
	if libraryKey(t, respelled).address() != key.address() {
		t.Fatal("the respelled request addresses another document")
	}
	wantJSON := map[string][]byte{}
	for _, body := range []string{quickProfile, other, third} {
		wantJSON[body] = append(libraryRender(t, libraryKey(t, body)), '\n')
	}
	wantPprof := libraryPprof(t, quickProfile)

	newGhostServer := func(t *testing.T) (*Server, *httptest.Server, string) {
		dir := t.TempDir()
		s, ts := newTestServer(t, Config{CacheEntries: 1, StoreDir: dir})
		return s, ts, dir
	}
	// A step posts body to uri; its answer must be want, with disposition.
	type step struct {
		name, uri, body, disposition string
		want                         []byte
	}
	// run takes a step and holds the ghosts to the LRU's one entry and the
	// counters' moves over the step to delta.
	run := func(t *testing.T, ts *httptest.Server, st step, delta func(before, after ghostCounters) string) {
		t.Helper()
		before := readGhostCounters(t, ts.URL)
		resp, got := postDiffOrProfile(t, ts.URL+st.uri, st.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", st.name, resp.StatusCode, got)
		}
		if d := resp.Header.Get("X-DProf-Cache"); d != st.disposition {
			t.Errorf("%s: disposition %q, want %q", st.name, d, st.disposition)
		}
		if !bytes.Equal(got, st.want) {
			t.Errorf("%s: body differs from the library render", st.name)
		}
		after := readGhostCounters(t, ts.URL)
		if after.Ghosts > 1 {
			t.Errorf("%s: %d ghosts, more than the LRU's 1 entry", st.name, after.Ghosts)
		}
		if delta != nil {
			if msg := delta(before, after); msg != "" {
				t.Errorf("%s: %s (counters %+v after %+v)", st.name, msg, after, before)
			}
		}
	}
	keepsForm := func(before, after ghostCounters) string {
		if after.Encodes != before.Encodes || after.MemoHits != before.MemoHits+1 || after.GhostHits != before.GhostHits+1 {
			return "want the ghost's form taken back: no encode, one memo hit, one ghost hit"
		}
		return ""
	}
	aliasHit := func(before, after ghostCounters) string {
		if after.AliasHits != before.AliasHits+1 || after.Hits != before.Hits+1 {
			return "want one resident alias hit"
		}
		return ""
	}
	noAliasHit := func(before, after ghostCounters) string {
		if after.AliasHits != before.AliasHits {
			return "want no alias hit"
		}
		return ""
	}
	const pprofURI = "/profile?format=pprof"

	t.Run("read back from disk", func(t *testing.T) {
		_, ts, _ := newGhostServer(t)
		run(t, ts, step{"first", pprofURI, quickProfile, "miss", wantPprof}, nil)
		run(t, ts, step{"evicting", "/profile", other, "miss", wantJSON[other]}, func(_, after ghostCounters) string {
			if after.Ghosts != 1 || after.Encodes != 1 {
				return "want one ghost and the one encode"
			}
			return ""
		})
		run(t, ts, step{"read back", pprofURI, quickProfile, "disk", wantPprof}, keepsForm)
		run(t, ts, step{"identical repeat", pprofURI, quickProfile, "hit", wantPprof}, aliasHit)
		run(t, ts, step{"identical repeat as JSON", "/profile", quickProfile, "hit", wantJSON[quickProfile]}, aliasHit)

		// Evicting again and reading back by a second spelling: the full
		// path re-admits the body, takes back the form, then replaces the
		// ghost's alias with the new spelling.
		run(t, ts, step{"evicting again", "/profile", other, "disk", wantJSON[other]}, nil)
		run(t, ts, step{"respelled read back", pprofURI, respelled, "disk", wantPprof}, func(before, after ghostCounters) string {
			if msg := keepsForm(before, after); msg != "" {
				return msg
			}
			return noAliasHit(before, after)
		})
		run(t, ts, step{"respelled repeat", pprofURI, respelled, "hit", wantPprof}, aliasHit)
		run(t, ts, step{"first spelling was replaced", pprofURI, quickProfile, "hit", wantPprof}, noAliasHit)
	})

	t.Run("ghosts are capped", func(t *testing.T) {
		_, ts, _ := newGhostServer(t)
		for i, body := range []string{quickProfile, other, third, quickProfile, other, third} {
			disposition := "miss"
			if i >= 3 {
				disposition = "disk"
			}
			run(t, ts, step{fmt.Sprintf("request %d", i), "/profile", body, disposition, wantJSON[body]}, func(_, after ghostCounters) string {
				if i > 0 && after.Ghosts != 1 {
					return "want exactly one ghost"
				}
				return ""
			})
		}
	})

	t.Run("a different body is encoded afresh", func(t *testing.T) {
		s, ts, dir := newGhostServer(t)
		run(t, ts, step{"first", pprofURI, quickProfile, "miss", wantPprof}, nil)
		run(t, ts, step{"evicting", "/profile", other, "miss", wantJSON[other]}, nil)
		// Swap the stored object for a re-indented copy: another valid
		// object of the same document, whose bytes (and sum) differ from
		// those the ghost's form was derived from.
		addr := key.address()
		name := sha256.Sum256([]byte(addr))
		path := filepath.Join(dir, hex.EncodeToString(name[:1]), hex.EncodeToString(name[:]))
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, bytes.TrimSuffix(wantJSON[quickProfile], []byte("\n")), "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := s.store.Put(addr, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		run(t, ts, step{"read back", pprofURI, quickProfile, "disk", wantPprof}, func(before, after ghostCounters) string {
			if after.Encodes != before.Encodes+1 || after.GhostHits != before.GhostHits+1 {
				return "want one fresh encode and one ghost hit"
			}
			return ""
		})
		run(t, ts, step{"repeat", pprofURI, quickProfile, "hit", wantPprof}, func(before, after ghostCounters) string {
			if msg := aliasHit(before, after); msg != "" {
				return msg
			}
			if after.Encodes != before.Encodes || after.MemoHits != before.MemoHits+1 {
				return "want the fresh form memoized"
			}
			return ""
		})
	})

	t.Run("streams bypass ghosts", func(t *testing.T) {
		_, ts, _ := newGhostServer(t)
		run(t, ts, step{"first", "/profile", quickProfile, "miss", wantJSON[quickProfile]}, nil)
		run(t, ts, step{"evicting", "/profile", other, "miss", wantJSON[other]}, nil)
		resp, got := postDiffOrProfile(t, ts.URL+"/profile?stream=ndjson", quickProfile)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream: status %d: %s", resp.StatusCode, got)
		}
		var events []string
		var result []byte
		sc := bufio.NewScanner(bytes.NewReader(got))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var ev struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("stream line %q: %v", sc.Bytes(), err)
			}
			events = append(events, ev.Event)
			if ev.Event == "result" {
				result = ev.Data
			}
		}
		if strings.Join(events, ",") != "accepted,result" {
			t.Errorf("stream events %q, want the stream bridge's accepted and result", events)
		}
		if !bytes.Equal(append(result, '\n'), wantJSON[quickProfile]) {
			t.Error("stream result differs from the library render")
		}
		// The stream's read re-admitted the body, which took back the
		// ghost's alias.
		run(t, ts, step{"plain repeat", "/profile", quickProfile, "hit", wantJSON[quickProfile]}, aliasHit)
	})

	t.Run("owned elsewhere is forwarded", func(t *testing.T) {
		cfgs := []Config{
			{Workers: 2, CacheEntries: 1, StoreDir: t.TempDir()},
			{Workers: 2, StoreDir: t.TempDir()},
		}
		reps := newFleet(t, cfgs...)
		seed := seedOwnedBy(t, reps, 1)
		body := seedBody(seed)
		want := append(libraryRender(t, libraryKey(t, body)), '\n')
		ts := reps[0].ts
		run(t, ts, step{"first", "/profile", body, "proxy:miss", want}, nil)
		evicting := "miss"
		if reps[0].s.peers.owner(key.address()) != ts.URL {
			evicting = "proxy:miss"
		}
		run(t, ts, step{"evicting", "/profile", quickProfile, evicting, wantJSON[quickProfile]}, nil)
		// Even with the document on this replica's own disk, the ghost's
		// spelling must not keep the request from its owner.
		if err := reps[0].s.store.Put(addressOf(t, reps[0].s, seed), bytes.TrimSuffix(want, []byte("\n"))); err != nil {
			t.Fatal(err)
		}
		run(t, ts, step{"repeat", "/profile", body, "proxy:hit", want}, nil)
	})
}
