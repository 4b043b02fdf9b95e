package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"dprof/internal/core"
	"dprof/internal/perfin"
	"dprof/internal/pprofout"
)

// maxIngestBytes bounds a POST /ingest body. Real perf mem captures of the
// duration DProf analyzes run well under this.
const maxIngestBytes = 32 << 20

// ingestKey is an ingest request after normalization: the capture identified
// by content, the views canonicalized. Its JSON encoding hashes into the
// content address, so re-POSTing the same perf.data with the same parameters
// hits the cache/store instead of re-parsing.
type ingestKey struct {
	BodySHA string   `json:"body_sha256"`
	Views   []string `json:"views"`
	Type    string   `json:"type"`
}

func (k ingestKey) address() string { return contentAddress("ingest/", k) }

// handleIngest is POST /ingest: the body is a raw perf.data capture
// (perf mem record), the optional ?views= and ?type= query parameters mirror
// the ProfileRequest fields, and the response is the same canonical
// core.ProfileDocument bytes POST /profile produces — content-addressed,
// cached, persisted, and replica-routed through the same request path, so
// the ingested document round-trips via GET /object/{addr} and diffs
// against simulated sessions. Like /profile, the response converts to a
// gzipped pprof protobuf when the client negotiates it (?format=pprof or
// Accept: application/octet-stream).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, maxIngestBytes)
	if !ok {
		return
	}
	k, err := normalizeIngest(r, raw)
	if err != nil {
		writeError(w, err)
		return
	}
	s.answer(w, r, job{
		addr: k.address(),
		// The capture goes verbatim: normalization is deterministic, so
		// the owner derives the identical content address from it.
		request: func() (string, string, []byte) { return http.MethodPost, k.uri(), raw },
		doc:     true,
		run:     func(func(string, any)) ([]byte, error) { return s.runIngest(raw, k) },
	})
}

// uri is the /ingest URI a non-owner forwards: only the fields that shape
// the key, so the owner answers with the canonical JSON document whatever
// format the client negotiated here.
func (k ingestKey) uri() string {
	views := strings.Join(k.Views, ",")
	if views == "" {
		views = "," // an explicitly empty selection, not the default one
	}
	q := url.Values{"views": {views}}
	if k.Type != "" {
		q.Set("type", k.Type)
	}
	return "/ingest?" + q.Encode()
}

// normalizeIngest resolves the query parameters against the capture bytes.
func normalizeIngest(r *http.Request, raw []byte) (ingestKey, error) {
	sum := sha256.Sum256(raw)
	k := ingestKey{
		BodySHA: hex.EncodeToString(sum[:]),
		Type:    r.URL.Query().Get("type"),
	}
	views := r.URL.Query().Get("views")
	if views == "" {
		k.Views = slices.Clone(core.KnownViews)
		return k, nil
	}
	var requested []string
	for _, v := range strings.Split(views, ",") {
		if v = strings.TrimSpace(v); v != "" {
			requested = append(requested, v)
		}
	}
	var err error
	if k.Views, err = canonicalViews(requested); err != nil {
		return ingestKey{}, err
	}
	return k, nil
}

// runIngest parses a capture and renders the canonical profile document.
// It is only ever called inside a flight; parse counters accumulate into the
// server's cumulative ingest stats (GET /stats "ingest" section) only when a
// parse actually runs — cache and store hits do not recount samples.
func (s *Server) runIngest(raw []byte, k ingestKey) ([]byte, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()

	p, err := perfin.Parse(raw)
	if err != nil {
		s.ingestFailures.Add(1)
		return nil, err
	}
	s.ingestMu.Lock()
	s.ingestStats.Add(p.Stats)
	s.ingestMu.Unlock()

	target := p.DefaultTarget()
	if k.Type != "" {
		if target = p.Source.TypeByName(k.Type); target == nil {
			return nil, &core.UnknownTypeError{Name: k.Type, Known: p.Types.Names()}
		}
	}
	doc, err := core.BuildSourceDocument(p.Source, k.Views, "perf:ingest", map[string]string{}, target)
	if err != nil {
		return nil, err
	}
	doc.Summary = fmt.Sprintf("ingested perf.data: %d samples over %d mappings",
		p.Stats.SamplesKept, p.Stats.Mappings)
	// Zero time: the document must stay byte-identical for its content
	// address across replicas and restarts.
	doc.Stamp(core.SourcePerf, time.Time{})
	return json.Marshal(doc)
}

// --- pprof content negotiation ---

// wantsPprof reports whether the client asked for the document as a gzipped
// pprof protobuf instead of JSON.
func wantsPprof(r *http.Request) bool {
	if r.URL.Query().Get("format") == "pprof" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/octet-stream")
}

// ExportError reports a cached document that cannot convert to the
// negotiated format — the request's view selection, not the server's fault.
type ExportError struct{ Err error }

func (e *ExportError) Error() string { return fmt.Sprintf("pprof export: %v", e.Err) }

func (e *ExportError) Unwrap() error { return e.Err }

// writeNegotiated writes a finished body fetched for j, converting a
// profile document (j.doc) to a gzipped pprof protobuf when the client
// negotiated that. The cache, store and peers keep one representation, the
// canonical JSON; the pprof form is derived from it at the edge and
// memoized by the entry holding the body (see lru.pprof), and by the
// entry's ghost after eviction, for a body read back with the same
// checksum. It is never stored on disk or forwarded.
func (s *Server) writeNegotiated(w http.ResponseWriter, r *http.Request, j job, body []byte, disposition string) {
	if !j.doc || !wantsPprof(r) {
		writeBody(w, body, disposition)
		return
	}
	gz, err := s.cache.pprof(j.addr, body)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-DProf-Cache", disposition)
	w.Write(gz)
}

// encodePprof converts canonical document bytes to a gzipped pprof
// protobuf. A document whose views cannot export is an ExportError.
func encodePprof(body []byte) ([]byte, error) {
	d, err := core.ParseDocument(body)
	if err != nil {
		return nil, err
	}
	gz, err := pprofout.EncodeDocument(d, pprofout.Meta{
		Comments: []string{"dprofd: " + d.Workload},
	})
	if err != nil {
		return nil, &ExportError{Err: err}
	}
	return gz, nil
}
