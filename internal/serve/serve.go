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
// seed, same views: same bytes — so results are content-addressed: an LRU
// cache serves repeats without simulating, and a singleflight layer makes N
// identical concurrent requests share one simulation and byte-identical
// responses. Simulations run detached from any one request on a bounded
// worker pool, so a client disconnecting neither cancels work other clients
// share nor loses the result for the cache. Progress streams to clients as
// NDJSON or SSE (?stream=ndjson|sse): experiment runs bridge the engine's
// events, and windowed profiling sessions (the shared window-ms option)
// stream every window snapshot as its boundary closes, so a watching client
// sees the profile converge live instead of waiting for the whole run.
//
// Two scaling layers stack on top (see the README's "Scaling dprofd"):
// Config.StoreDir backs the LRU with a disk content-addressed store
// (internal/store) so finished documents survive restarts, and
// Config.Self/Peers (or SetPeers) joins a replica fleet — a
// consistent-hash ring routes every content address to one owning
// replica, turning the owner's in-process singleflight into a fleet-wide
// guarantee that each distinct profile simulates exactly once.
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
	"time"

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
	// re-simulating the warmup. Zero means the 256 MiB default; negative
	// disables warm-start forking entirely (every request runs cold).
	CheckpointPoolBytes int64
}

// Server is the dprofd HTTP service. Construct with New, mount Handler,
// and call Shutdown to cancel pending work on the way out.
type Server struct {
	cfg     Config
	sem     chan struct{}
	cache   *lru
	store   *store.Store         // nil = memory only
	peers   *peerSet             // nil = single-replica mode
	ckpts   *core.CheckpointPool // nil = warm-start forking disabled
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
	if cfg.CheckpointPoolBytes == 0 {
		cfg.CheckpointPoolBytes = 256 << 20
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		cache: newLRU(cfg.CacheEntries),
	}
	if cfg.CheckpointPoolBytes > 0 {
		s.ckpts = core.NewCheckpointPool(cfg.CheckpointPoolBytes)
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusFor(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
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

// handleStats exposes every layer's operational counters — LRU
// hits/misses/evictions, the disk store's hit/miss/bytes counters, the
// replica ring's proxy/fetch/fallback counters, and how many requests the
// singleflight layer deduplicated onto a shared simulation — the
// observability surface for tuning CacheEntries, sizing the fleet, and
// verifying the dedup contract in production. The combined schema is
// documented in the README's "Scaling dprofd" section.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"cache": map[string]any{
			"entries":   s.cache.len(),
			"capacity":  s.cfg.CacheEntries,
			"hits":      s.hits.Load(),
			"misses":    s.misses.Load(),
			"evictions": s.cache.evicted(),
		},
		"singleflight": map[string]any{
			"deduplicated": s.dedups.Load(),
		},
		"simulations": s.simulations.Load(),
		"workers":     s.cfg.Workers,
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
		st := s.store.Stats()
		out["store"] = map[string]any{
			"dir":                 st.Dir,
			"entries":             st.Entries,
			"hits":                st.Hits,
			"misses":              st.Misses,
			"puts":                st.Puts,
			"write_once_rejected": st.Rejected,
			"corrupt_dropped":     st.Corrupt,
			"bytes_written":       st.BytesWritten,
			"bytes_read":          st.BytesRead,
			"max_bytes":           st.MaxBytes,
			"bytes_resident":      st.BytesResident,
			"sweeps":              st.Sweeps,
			"swept_objects":       st.SweptObjects,
			"swept_bytes":         st.SweptBytes,
		}
	}
	if s.ckpts != nil {
		out["checkpoints"] = s.ckpts.Stats()
	}
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
	// The raw body is kept around so a non-owning replica can forward the
	// request verbatim: normalization is deterministic, so the owner derives
	// the identical content address from the identical bytes.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req ProfileRequest
	if err := dec.Decode(&req); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	k, err := s.normalize(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	addr := k.address()

	st := newStreamer(w, r)
	if body, ok := s.cache.get(addr); ok {
		s.hits.Add(1)
		if st != nil {
			st.event("result", json.RawMessage(body))
			return
		}
		s.writeNegotiated(w, r, body, "hit")
		return
	}
	if st != nil {
		// Streamed sessions always run where they land: live window events
		// cannot cross a proxy hop. The flight body still reads through the
		// disk store and the peers' stores before simulating.
		s.streamProfile(st, r, k, addr)
		return
	}

	if owner, ok := s.routeOwner(r, addr); ok {
		body, disposition, err := s.proxyCompute(r.Context(), owner, addr, http.MethodPost, "/profile", raw)
		if err == nil {
			w.Header().Set(replicaHeader, owner)
			s.writeNegotiated(w, r, body, disposition)
			return
		}
		// The owner is dead or draining: availability beats strict
		// ownership, so this replica simulates locally.
		s.peerFallbacks.Add(1)
	}

	body, disposition, err := s.compute(r, addr, func() ([]byte, error) { return s.runProfile(k, nil) })
	if err != nil {
		writeError(w, err)
		return
	}
	s.writeNegotiated(w, r, body, disposition)
}

// streamProfile runs a profiling session through the singleflight layer,
// bridging window snapshots to the client as live "window" events and
// emitting the result (or error) as the final event. Only the flight
// leader gets live snapshots — a streaming client joining someone else's
// in-progress run receives keep-alives and then the shared result — and
// the simulation runs detached under the server's lifetime, so the
// cache/dedup/disconnect semantics are identical to a plain POST /profile.
func (s *Server) streamProfile(st *streamer, r *http.Request, k profileKey, addr string) {
	st.event("accepted", map[string]any{"address": addr, "workload": k.Workload})
	snaps := make(chan json.RawMessage, 8)
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, err, leader := s.flights.do(r.Context(), addr, s.cachedRun(addr, nil, func() ([]byte, error) {
			return s.runProfile(k, func(ws *core.WindowSnapshot) {
				raw, err := json.Marshal(ws)
				if err != nil {
					return
				}
				select {
				case snaps <- raw:
				default: // this handler may be gone; never block the simulation
				}
			})
		}))
		if !leader {
			s.dedups.Add(1)
		}
		done <- outcome{body, err}
	}()
	for {
		select {
		case raw := <-snaps:
			st.event("window", raw)
		case out := <-done:
			// Drain snapshots emitted before the run finished, so the
			// stream always shows the final window before the result.
			for {
				select {
				case raw := <-snaps:
					st.event("window", raw)
					continue
				default:
				}
				break
			}
			if out.err != nil {
				st.event("error", map[string]any{"error": out.err.Error(), "status": statusFor(out.err)})
				return
			}
			st.event("result", json.RawMessage(out.body))
			return
		case <-time.After(15 * time.Second):
			st.comment("running")
		}
	}
}

// compute runs a cacheable computation through the singleflight layer:
// exactly one concurrent execution per address, the result cached inside
// the flight (so it survives every waiter disconnecting), and a re-check of
// the cache inside the flight closing the get→do window (a request that
// lost the race to a just-finished flight must not relaunch the
// simulation). The returned disposition reports what actually happened —
// "miss" (this request launched the computation), "hit" (the in-flight
// re-check found a just-cached body), "disk" (the body came off the local
// store), "peer" (a peer's store had it), or "dedup" (joined another
// request's flight). Streaming requests go through
// streamProfile/streamExperiment instead, which add live events and
// keep-alives on the same flight path.
func (s *Server) compute(r *http.Request, addr string, run func() ([]byte, error)) (body []byte, disposition string, err error) {
	var src string
	wrapped := s.cachedRun(addr, &src, run)
	body, err, leader := s.flights.do(r.Context(), addr, wrapped)
	switch {
	case err != nil:
		return nil, "", err
	case !leader:
		s.dedups.Add(1)
		return body, "dedup", nil
	case src != "":
		return body, src, nil
	}
	return body, "miss", nil
}

// cachedRun wraps a flight body with the layered read path — LRU, then the
// disk store (promoting a hit into the LRU), then the peers' stores, then
// the computation — and the miss/hit accounting: a miss counts a launched
// computation, never a joined or just-missed one. A computed body lands in
// both the LRU and the store, so it survives a restart. source (optional)
// reports where the body came from ("hit", "disk", "peer", "" = computed);
// the flight-completion channel orders the write before any waiter reads it.
func (s *Server) cachedRun(addr string, source *string, run func() ([]byte, error)) func() ([]byte, error) {
	setSrc := func(v string) {
		if source != nil {
			*source = v
		}
	}
	return func() ([]byte, error) {
		if body, ok := s.cache.get(addr); ok {
			s.hits.Add(1)
			setSrc("hit")
			return body, nil
		}
		if s.store != nil {
			if body, ok := s.store.Get(addr); ok {
				s.cache.put(addr, body)
				setSrc("disk")
				return body, nil
			}
		}
		if body, ok := s.peerObject(addr); ok {
			setSrc("peer")
			return body, nil
		}
		s.misses.Add(1)
		body, err := run()
		if err == nil {
			s.cache.put(addr, body)
			s.persist(addr, body)
		}
		return body, err
	}
}

// persist writes a finished body through to the disk store, best-effort:
// persistence failing must not fail the request the body answers.
func (s *Server) persist(addr string, body []byte) {
	if s.store == nil {
		return
	}
	s.store.Put(addr, body)
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
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("bad quick value %q: want a bool", q)})
			return
		}
		quick = b
	}
	addr := fmt.Sprintf("experiment/%s/quick=%t", name, quick)

	st := newStreamer(w, r)
	if body, ok := s.cache.get(addr); ok {
		s.hits.Add(1)
		if st != nil {
			st.event("result", json.RawMessage(body))
			return
		}
		writeBody(w, body, "hit")
		return
	}

	if st != nil {
		s.streamExperiment(st, r, name, quick, addr)
		return
	}
	if owner, ok := s.routeOwner(r, addr); ok {
		uri := fmt.Sprintf("/experiments/%s?quick=%t", name, quick)
		body, disposition, err := s.proxyCompute(r.Context(), owner, addr, http.MethodGet, uri, nil)
		if err == nil {
			w.Header().Set(replicaHeader, owner)
			writeBody(w, body, disposition)
			return
		}
		s.peerFallbacks.Add(1)
	}
	body, disposition, err := s.compute(r, addr, func() ([]byte, error) {
		return s.runExperiment(s.ctx, name, quick, nil)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, body, disposition)
}

// runExperiment executes one experiment on the engine, under the worker
// pool. progress, if non-nil, receives the engine's events (delivery is the
// engine's non-blocking bounded-buffer path).
func (s *Server) runExperiment(ctx context.Context, name string, quick bool, progress func(exp.Event)) ([]byte, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	s.simulations.Add(1)
	// WarmStart shares warmup checkpoints across the experiment's internal
	// runs; the output is byte-identical to a cold engine run.
	res, err := exp.Run(ctx, name, exp.Options{Quick: quick, Workers: 1, Progress: progress, WarmStart: true})
	if err != nil {
		return nil, err
	}
	return marshalExperiment(res, quick)
}

// streamExperiment runs an experiment through the same singleflight layer
// as plain requests, bridging engine events to the client as NDJSON/SSE and
// emitting the result (or error) as the final event. Only the flight leader
// gets live progress events — a streaming client that joins someone else's
// in-progress run receives keep-alives and then the shared result — and the
// simulation itself runs detached under the server's lifetime, so the
// cache/dedup/disconnect semantics are identical to POST /profile.
func (s *Server) streamExperiment(st *streamer, r *http.Request, name string, quick bool, addr string) {
	events := make(chan exp.Event, 8)
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, err, leader := s.flights.do(r.Context(), addr, s.cachedRun(addr, nil, func() ([]byte, error) {
			return s.runExperiment(s.ctx, name, quick, func(ev exp.Event) {
				select {
				case events <- ev:
				default: // this handler may be gone; never block the engine
				}
			})
		}))
		if !leader {
			s.dedups.Add(1)
		}
		done <- outcome{body, err}
	}()
	for {
		select {
		case ev := <-events:
			st.event(kindName(ev.Kind), eventPayload(ev))
		case out := <-done:
			// Drain events the engine emitted before finishing, so the
			// stream always shows the terminal event before the result.
			for {
				select {
				case ev := <-events:
					st.event(kindName(ev.Kind), eventPayload(ev))
					continue
				default:
				}
				break
			}
			if out.err != nil {
				st.event("error", map[string]any{"error": out.err.Error(), "status": statusFor(out.err)})
				return
			}
			st.event("result", json.RawMessage(out.body))
			return
		case <-time.After(15 * time.Second):
			// Keep-alive for proxies while a long experiment runs.
			st.comment("running")
		}
	}
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
