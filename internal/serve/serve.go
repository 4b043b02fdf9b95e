// Package serve implements dprofd: DProf as a long-running HTTP service.
//
// The service exposes the whole stack — the workload registry, profiling
// sessions, profile diffing, and the paper-experiment engine:
//
//	GET  /workloads          the registry: workloads, options, windows
//	GET  /experiments        the experiment registry, in paper order
//	GET  /experiments/{name} run one paper experiment (cached)
//	POST /profile            run a workload profiling session (cached)
//	POST /ingest             ingest a raw perf.data capture (cached)
//	POST /diff               diff two sessions' data profiles (cached)
//	GET  /object/{addr}      a stored document by content address (peers)
//	GET  /stats              cache/store/peer + singleflight counters
//	GET  /healthz            liveness plus cache/worker counters
//
// Profiling is deterministic — same workload, same canonical options, same
// seed, same views: same bytes — so results are content-addressed, and
// every cacheable endpoint answers through one request path (answer). The
// handler decodes and normalizes its request into a job: the content
// address, how a non-owner forwards it, and how to run it. Then, in order:
//
//  1. The LRU. A hit answers at once, with no goroutine and no flight.
//     /profile and /diff check it by the request's spelling before they
//     decode anything (see answerRequest), then by its content address.
//     A spelling an evicted entry's ghost kept reads the body back from
//     the disk store, just as undecoded, unless step 3 would forward it.
//  2. A streamed request (?stream=ndjson|sse) runs locally and relays the
//     run's live events: engine progress for experiments, window snapshots
//     for windowed profiles. Streams are never forwarded.
//  3. In a replica fleet, a request whose address another replica owns is
//     forwarded to that owner, unless it arrived routed. A failed owner
//     falls back to step 4.
//  4. A local flight: one run per address however many requests wait on
//     it, detached from every client on a bounded worker pool. It reads
//     through the LRU, the disk store and the peers' stores before it runs,
//     and the body it produces lands in the LRU and the store.
//
// The X-DProf-Cache header names where the body came from: "hit" (the
// LRU), "disk" (the local store), "peer" (another replica's store), "miss"
// (this request ran it), "dedup" (it joined another request's flight), or
// "proxy:<d>" (the owner answered with disposition d). /diff sides and
// /ingest route exactly like /profile; a /diff itself runs where it lands.
// Every layer holds a profile document as its canonical JSON; a negotiated
// pprof answer is converted at the edge and kept on the LRU entry, and on
// its ghost for one generation after eviction (see writeNegotiated).
//
// Config.StoreDir backs the LRU with a disk content-addressed store
// (internal/store) so finished documents survive restarts, and
// Config.Self/Peers (or SetPeers) joins a replica fleet whose
// consistent-hash ring turns the owner's singleflight into a fleet-wide
// guarantee that each distinct profile simulates exactly once (see the
// README's "Scaling dprofd").
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/exp"
	"dprof/internal/perfin"
	"dprof/internal/store"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent simulations (profiles and experiments
	// combined). Zero or negative means GOMAXPROCS.
	Workers int
	// CacheEntries is the LRU capacity in finished responses (default 256).
	CacheEntries int
	// Quick is the default fidelity for requests that do not specify one.
	Quick bool
	// MaxMeasureMs caps the requested measured window (default 60000
	// simulated milliseconds) so one request cannot wedge a worker.
	MaxMeasureMs uint64
	// StoreDir, when non-empty, backs the LRU with a disk content-addressed
	// store: finished documents persist across restarts and the LRU becomes
	// a read-through layer in front of it.
	StoreDir string
	// StoreMaxBytes bounds the disk store's resident bytes (0 = unbounded):
	// a write that lands over the budget sweeps the oldest objects until the
	// store fits. Swept profiles re-simulate on their next miss.
	StoreMaxBytes int64
	// Self and Peers, when Peers is non-empty, switch the server into
	// multi-replica mode (see SetPeers): Self is this replica's URL as
	// peers reach it, Peers the fleet's replica URLs.
	Self  string
	Peers []string
	// CheckpointPoolBytes bounds the in-memory warm-start checkpoint pool:
	// machine checkpoints captured at the warmup boundary, forked to serve
	// profile requests that differ only in measured length without
	// re-simulating the warmup. An entry is parked between requests, which
	// drops everything the next fork rewrites in full, and the budget
	// charges what a parked entry keeps (core.Checkpoint.Bytes): its
	// snapshot and its live session. The 42 entries of perfbench's serve
	// deck are charged 47.9 MB and keep 50.5 MB of live heap. Zero means
	// the 256 MiB default; a negative budget is an error.
	CheckpointPoolBytes int64
}

// Server is the dprofd HTTP service. Construct with New, mount Handler,
// and call Shutdown to cancel pending work on the way out.
type Server struct {
	cfg     Config
	sem     chan struct{}
	cache   *lru
	store   *store.Store // nil = memory only
	peers   *peerSet     // nil = single-replica mode
	ckpts   *core.CheckpointPool
	flights flightGroup
	mux     *http.ServeMux

	ctx  context.Context // the server's lifetime: detached jobs run under it
	stop context.CancelFunc

	simulations atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	dedups      atomic.Int64

	peerProxied   atomic.Int64 // requests this replica forwarded to their owner
	peerFetches   atomic.Int64 // stored documents adopted from a peer's store
	peerFallbacks atomic.Int64 // proxy failures served by local simulation
	objectsServed atomic.Int64 // GET /object hits served to peers

	// Cumulative perf.data ingestion counters (GET /stats "ingest" section).
	// Only actual parses accumulate — cache and store hits do not recount.
	ingestMu       sync.Mutex
	ingestStats    perfin.Stats
	ingestFailures atomic.Int64
}

// New builds a Server with its worker pool, cache, and (when configured)
// disk store and replica ring. An unusable store directory fails here, at
// startup, not on the first write.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxMeasureMs == 0 {
		cfg.MaxMeasureMs = 60_000
	}
	if cfg.CheckpointPoolBytes < 0 {
		return nil, fmt.Errorf("serve: checkpoint pool budget %d is negative: want 0 (the 256 MiB default) or a byte count", cfg.CheckpointPoolBytes)
	}
	if cfg.CheckpointPoolBytes == 0 {
		cfg.CheckpointPoolBytes = 256 << 20
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		cache: newLRU(cfg.CacheEntries),
		ckpts: core.NewCheckpointPool(cfg.CheckpointPoolBytes),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		if cfg.StoreMaxBytes > 0 {
			// Applied before serving starts: a restart with a tightened
			// budget converges here, not on the first Put.
			st.SetMaxBytes(cfg.StoreMaxBytes)
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		if err := s.SetPeers(cfg.Self, cfg.Peers); err != nil {
			return nil, err
		}
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /experiments/{name}", s.handleExperiment)
	s.mux.HandleFunc("POST /profile", s.handleProfile)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("POST /diff", s.handleDiff)
	s.mux.HandleFunc("GET /object/{addr...}", s.handleObject)
	return s, nil
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown cancels the server's lifetime context: requests waiting for a
// worker slot fail fast with 503, and new simulations stop being admitted.
// Simulations already executing run to completion (the inner loop is not
// interruptible), which is what makes the shutdown graceful rather than
// abrupt — pair it with http.Server.Shutdown to drain handlers.
func (s *Server) Shutdown() { s.stop() }

// Simulations reports how many simulations the server actually ran —
// the observable half of the cache+singleflight contract (N identical
// concurrent requests must increment this once).
func (s *Server) Simulations() int64 { return s.simulations.Load() }

// acquire takes a worker slot, failing fast once the server is shut down.
func (s *Server) acquire() error {
	select {
	case s.sem <- struct{}{}:
		// Re-check: a slot won in the same instant as shutdown must not
		// start a fresh simulation.
		if s.ctx.Err() != nil {
			<-s.sem
			return s.ctx.Err()
		}
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// --- error mapping ---

// statusFor maps the stack's typed errors onto HTTP statuses: registry
// misses are 404, invalid parameters are 400 (with the declared valid set
// in the message, mirroring the CLI contract), shutdown/disconnect is 503.
func statusFor(err error) int {
	var (
		unknownWorkload *workload.UnknownWorkloadError
		unknownExp      *exp.UnknownError
		unknownOption   *workload.UnknownOptionError
		badValue        *workload.BadValueError
		unknownView     *core.UnknownViewError
		unknownType     *core.UnknownTypeError
		tooLarge        *TooLargeError
		buildErr        *BuildError
		formatErr       *perfin.FormatError
		unsupported     *perfin.UnsupportedError
		schemaErr       *core.SchemaVersionError
		exportErr       *ExportError
	)
	switch {
	case errors.As(err, &unknownWorkload), errors.As(err, &unknownExp):
		return http.StatusNotFound
	case errors.As(err, &unknownOption), errors.As(err, &badValue),
		errors.As(err, &unknownView), errors.As(err, &unknownType),
		errors.As(err, &tooLarge), errors.As(err, &buildErr),
		errors.As(err, &formatErr), errors.As(err, &unsupported),
		errors.As(err, &schemaErr), errors.As(err, &exportErr):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	writeStatus(w, statusFor(err), err.Error())
}

// writeStatus writes a JSON error body under an explicit status.
func writeStatus(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// readBody reads a request body of at most limit bytes. A failure answers
// 400 and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeBadBody(w, err)
		return nil, false
	}
	return raw, true
}

func writeBadBody(w http.ResponseWriter, err error) {
	writeStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// decodeBody decodes the first JSON value of raw into v, rejecting a field
// v does not name.
func decodeBody(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeBody writes a finished (already-serialized) response body with its
// cache disposition header. Bodies are canonical JSON: byte-identical for
// byte-identical content addresses.
func writeBody(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-DProf-Cache", disposition)
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

// --- registry listings ---

type optionJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default string `json:"default,omitempty"`
	Usage   string `json:"usage"`
}

type windowsJSON struct {
	Warmup  uint64 `json:"warmup_cycles"`
	Measure uint64 `json:"measure_cycles"`
}

type workloadJSON struct {
	Name          string       `json:"name"`
	Description   string       `json:"description"`
	DefaultTarget string       `json:"default_target,omitempty"`
	Options       []optionJSON `json:"options,omitempty"`
	Windows       windowsJSON  `json:"windows"`
	QuickWindows  windowsJSON  `json:"quick_windows"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadJSON
	for _, name := range workload.Names() {
		wl, _ := workload.Get(name)
		wj := workloadJSON{
			Name:          wl.Name(),
			Description:   wl.Description(),
			DefaultTarget: wl.DefaultTarget(),
			Windows:       windowsJSON(wl.Windows(false)),
			QuickWindows:  windowsJSON(wl.Windows(true)),
		}
		for _, o := range wl.Options() {
			wj.Options = append(wj.Options, optionJSON{
				Name: o.Name, Kind: o.Kind.String(), Default: o.Default, Usage: o.Usage,
			})
		}
		out = append(out, wj)
	}
	writeJSON(w, out)
}

type experimentJSON struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []experimentJSON
	for _, name := range exp.Names() {
		out = append(out, experimentJSON{Name: name, Title: exp.Title(name)})
	}
	writeJSON(w, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":         "ok",
		"workers":        s.cfg.Workers,
		"cache_entries":  s.cache.len(),
		"cache_capacity": s.cfg.CacheEntries,
		"simulations":    s.simulations.Load(),
		"cache_hits":     s.hits.Load(),
		"cache_misses":   s.misses.Load(),
		"deduplicated":   s.dedups.Load(),
	})
}

// handleStats serves every layer's counters: the LRU, singleflight,
// ingestion, the disk store, the checkpoint pool and the replica ring. The
// README's "Scaling dprofd" section documents the schema.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cache := s.cache.stats()
	cache["capacity"] = s.cfg.CacheEntries
	cache["hits"] = s.hits.Load()
	cache["misses"] = s.misses.Load()
	out := map[string]any{
		"cache": cache,
		"singleflight": map[string]any{
			"deduplicated": s.dedups.Load(),
		},
		"simulations": s.simulations.Load(),
		"workers":     s.cfg.Workers,
		"panics":      s.flights.panics.Load(),
	}
	s.ingestMu.Lock()
	ing := s.ingestStats
	reasons := make(map[string]uint64, len(ing.DropReasons))
	for k, v := range ing.DropReasons {
		reasons[k] = v
	}
	s.ingestMu.Unlock()
	out["ingest"] = map[string]any{
		"files_parsed":     ing.FilesParsed,
		"mappings":         ing.Mappings,
		"samples_total":    ing.SamplesTotal,
		"samples_accepted": ing.SamplesKept,
		"samples_dropped":  ing.SamplesDropped,
		"drop_reasons":     reasons,
		"other_records":    ing.OtherRecords,
		"parse_failures":   s.ingestFailures.Load(),
	}
	if s.store != nil {
		out["store"] = s.store.Stats()
	}
	out["checkpoints"] = s.ckpts.Stats()
	if s.peers != nil {
		out["peers"] = map[string]any{
			"self":           s.peers.self,
			"replicas":       len(s.peers.all),
			"proxied":        s.peerProxied.Load(),
			"peer_fetches":   s.peerFetches.Load(),
			"fallbacks":      s.peerFallbacks.Load(),
			"objects_served": s.objectsServed.Load(),
		}
	}
	writeJSON(w, out)
}

// --- profiling sessions ---

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	s.answerRequest(w, r, "/profile", &req, func() (job, error) {
		k, err := s.normalize(&req)
		if err != nil {
			return job{}, err
		}
		return s.profileJob(k), nil
	})
}

// --- experiments ---

// experimentResult is the GET /experiments/{name} body.
type experimentResult struct {
	Name   string             `json:"name"`
	Title  string             `json:"title"`
	Quick  bool               `json:"quick"`
	Text   string             `json:"text"`
	Values map[string]float64 `json:"values"`
}

func marshalExperiment(r exp.Result, quick bool) ([]byte, error) {
	return json.Marshal(experimentResult{
		Name: r.Name, Title: r.Title, Quick: quick, Text: r.Text, Values: r.Values,
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(exp.Names(), name) {
		writeError(w, &exp.UnknownError{Name: name, Known: exp.Names()})
		return
	}
	quick := s.cfg.Quick
	if q := r.URL.Query().Get("quick"); q != "" {
		// Same bool syntax as everywhere else ("1", "t", "TRUE", ...); a
		// typo must not silently launch a full-fidelity run.
		b, err := strconv.ParseBool(q)
		if err != nil {
			writeStatus(w, http.StatusBadRequest, fmt.Sprintf("bad quick value %q: want a bool", q))
			return
		}
		quick = b
	}
	s.answer(w, r, job{
		addr: fmt.Sprintf("experiment/%s/quick=%t", name, quick),
		request: func() (string, string, []byte) {
			return http.MethodGet, fmt.Sprintf("/experiments/%s?quick=%t", name, quick), nil
		},
		streams: true,
		run: func(emit func(string, any)) ([]byte, error) {
			var progress func(exp.Event)
			if emit != nil {
				progress = func(ev exp.Event) { emit(kindName(ev.Kind), eventPayload(ev)) }
			}
			return s.runExperiment(name, quick, progress)
		},
	})
}

// runExperiment executes one experiment on the engine, under the worker
// pool and the server's lifetime. progress, if non-nil, receives the
// engine's events (delivery is the engine's non-blocking bounded-buffer
// path).
func (s *Server) runExperiment(name string, quick bool, progress func(exp.Event)) ([]byte, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	s.simulations.Add(1)
	res, err := exp.Run(s.ctx, name, exp.Options{Quick: quick, Workers: 1, Progress: progress})
	if err != nil {
		return nil, err
	}
	return marshalExperiment(res, quick)
}

// eventPayload projects an engine event into its wire form.
func eventPayload(ev exp.Event) map[string]any {
	return map[string]any{
		"name":       ev.Name,
		"title":      ev.Title,
		"index":      ev.Index,
		"total":      ev.Total,
		"elapsed_ms": ev.Elapsed.Milliseconds(),
	}
}

func kindName(k exp.EventKind) string {
	switch k {
	case exp.EventStarted:
		return "started"
	case exp.EventFinished:
		return "finished"
	case exp.EventFailed:
		return "failed"
	}
	return "event"
}
