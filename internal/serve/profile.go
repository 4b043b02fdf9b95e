package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// ProfileRequest is the POST /profile body: which workload to run, how to
// parameterize it, and which views to render. Option values use the same
// string forms the CLI flags accept (including the shared "seed" option on
// workloads that declare it); views come from core.KnownViews.
type ProfileRequest struct {
	Workload string            `json:"workload"`
	Options  map[string]string `json:"options,omitempty"`
	// Views defaults to every view the workload can serve (all five when it
	// has a natural dataflow target).
	Views []string `json:"views,omitempty"`
	// Type is the dataflow/pathtrace target; defaults to the workload's
	// natural target when one of those views is requested.
	Type string `json:"type,omitempty"`
	// Sets is the history sets to collect per target (default 2).
	Sets int `json:"sets,omitempty"`
	// Rate is the IBS sample rate in samples/s/core (default 8000).
	Rate float64 `json:"rate,omitempty"`
	// MeasureMs is the measured window in simulated milliseconds (default:
	// the workload's declared window).
	MeasureMs uint64 `json:"measure_ms,omitempty"`
	// Quick trades fidelity for latency; defaults to the server's setting.
	Quick *bool `json:"quick,omitempty"`
}

// profileKey is a request after normalization: every default resolved,
// every option canonicalized and filled in, views deduplicated in
// presentation order. Its JSON encoding is the content address — two
// requests that mean the same session produce identical keys, so they share
// one simulation and byte-identical cached responses.
type profileKey struct {
	Workload      string            `json:"workload"`
	Options       map[string]string `json:"options"` // complete + canonical; json sorts keys
	Views         []string          `json:"views"`
	Type          string            `json:"type"`
	Sets          int               `json:"sets"`
	Rate          float64           `json:"rate"`
	WarmupCycles  uint64            `json:"warmup_cycles"`
	MeasureCycles uint64            `json:"measure_cycles"`
	Quick         bool              `json:"quick"`
}

// address returns the content address: a SHA-256 over the canonical key.
func (k profileKey) address() string { return contentAddress("profile/", k) }

// warmAddress returns the warm-start checkpoint address for a normalized
// key: the key with the measured length zeroed. Everything that shapes
// machine state at the warmup boundary addresses the checkpoint; the
// measure does not, because the checkpoint is taken with the measured
// window still unarmed.
func (k profileKey) warmAddress() string {
	k.MeasureCycles = 0
	return contentAddress("warm/", k)
}

// windowMs is the key's accounting-window length in milliseconds, 0 when
// the session runs as one window (window-ms unset or not positive).
func (k profileKey) windowMs() uint64 {
	wms, _ := strconv.ParseUint(k.Options["window-ms"], 10, 64)
	return wms
}

// contentAddress is prefix plus the hex SHA-256 of key's JSON encoding.
func contentAddress(prefix string, key any) string {
	raw, err := json.Marshal(key)
	if err != nil {
		panic(fmt.Sprintf("serve: key not marshalable: %v", err)) // plain data; cannot happen
	}
	sum := sha256.Sum256(raw)
	return prefix + hex.EncodeToString(sum[:])
}

// request rebuilds a ProfileRequest that normalizes back to k on any
// replica: the body a non-owner forwards to the owner. The measured window
// is spelled out only when it is not the workload's default, which need
// not be a whole number of milliseconds.
func (k profileKey) request() ProfileRequest {
	req := ProfileRequest{
		Workload: k.Workload,
		Options:  k.Options,
		Views:    k.Views,
		Type:     k.Type,
		Sets:     k.Sets,
		Rate:     k.Rate,
		Quick:    &k.Quick,
	}
	if w, err := workload.Lookup(k.Workload); err != nil || w.Windows(k.Quick).Measure != k.MeasureCycles {
		req.MeasureMs = k.MeasureCycles / 1_000_000
	}
	return req
}

// profileJob is the request-path job for a normalized profile key. A
// streamed run opens with an "accepted" event and relays every window
// snapshot as a live "window" event.
func (s *Server) profileJob(k profileKey) job {
	return job{
		addr: k.address(),
		request: func() (string, string, []byte) {
			body, _ := json.Marshal(k.request()) // plain data; cannot fail
			return http.MethodPost, "/profile", body
		},
		doc:      true,
		streams:  true,
		workload: k.Workload,
		run: func(emit func(string, any)) ([]byte, error) {
			if emit == nil {
				return s.runProfile(k, nil)
			}
			return s.runProfile(k, func(ws *core.WindowSnapshot) {
				if raw, err := json.Marshal(ws); err == nil {
					emit("window", json.RawMessage(raw))
				}
			})
		},
	}
}

// normalize validates a request against the workload registry and resolves
// every default, mirroring the CLI contract: unknown workloads, options,
// values, and views are rejected with errors that carry the declared valid
// set.
func (s *Server) normalize(req *ProfileRequest) (profileKey, error) {
	w, err := workload.Lookup(req.Workload)
	if err != nil {
		return profileKey{}, err
	}
	opts, err := workload.CanonicalOptions(w, req.Options)
	if err != nil {
		return profileKey{}, err
	}

	k := profileKey{
		Workload: w.Name(),
		Options:  opts,
		Type:     req.Type,
		Sets:     req.Sets,
		Rate:     req.Rate,
		Quick:    s.cfg.Quick,
	}
	if req.Quick != nil {
		k.Quick = *req.Quick
	}
	if k.Sets <= 0 {
		k.Sets = 2
	}
	if k.Sets > maxSets {
		return profileKey{}, &TooLargeError{Field: "sets", Value: uint64(k.Sets), Max: maxSets}
	}
	if k.Rate <= 0 {
		k.Rate = core.DefaultConfig().SampleRate
	}
	if k.Rate > maxRate {
		return profileKey{}, &TooLargeError{Field: "rate", Value: uint64(k.Rate), Max: maxRate}
	}

	if len(req.Views) == 0 {
		k.Views = slices.Clone(core.KnownViews)
		if req.Type == "" && w.DefaultTarget() == "" {
			// No natural target: default to the targetless views rather
			// than failing the whole request.
			k.Views = []string{"dataprofile", "workingset", "missclass"}
		}
	} else if k.Views, err = canonicalViews(req.Views); err != nil {
		return profileKey{}, err
	}
	needTarget := k.Type != "" || slices.Contains(k.Views, "dataflow") || slices.Contains(k.Views, "pathtrace")
	if needTarget && k.Type == "" {
		k.Type = w.DefaultTarget()
	}

	win := w.Windows(k.Quick)
	k.WarmupCycles = win.Warmup
	k.MeasureCycles = win.Measure
	if req.MeasureMs > 0 {
		if req.MeasureMs > s.cfg.MaxMeasureMs {
			return profileKey{}, &TooLargeError{Field: "measure_ms", Value: req.MeasureMs, Max: s.cfg.MaxMeasureMs}
		}
		k.MeasureCycles = req.MeasureMs * 1_000_000
	}
	// Windowed sessions re-render every requested view at each boundary and
	// embed every snapshot in the response, so the window count is a cost
	// amplifier the same way sets and rate are: cap it.
	if wms := k.windowMs(); wms > 0 {
		if n := (k.WarmupCycles + k.MeasureCycles) / (wms * 1_000_000); n > maxWindows {
			return profileKey{}, &TooLargeError{Field: "windows", Value: n, Max: maxWindows}
		}
	}
	return k, nil
}

// canonicalViews validates a view selection and returns it deduplicated in
// core.KnownViews order: the view set, not its spelling, addresses a
// document.
func canonicalViews(requested []string) ([]string, error) {
	for _, v := range requested {
		if !slices.Contains(core.KnownViews, v) {
			return nil, &core.UnknownViewError{Name: v}
		}
	}
	var views []string
	for _, v := range core.KnownViews {
		if slices.Contains(requested, v) {
			views = append(views, v)
		}
	}
	return views, nil
}

// Hard ceilings on the per-request knobs that scale simulation cost, so a
// single request cannot wedge or OOM a worker: history-set collection
// allocates per set, and the sample rate bounds per-cycle profiler work.
// MaxMeasureMs (configurable) covers the third axis, the window length.
const (
	maxSets    = 64
	maxRate    = 1_000_000 // samples/s/core; the paper sweeps up to 18,000
	maxWindows = 256       // boundary snapshots per session
)

// TooLargeError reports a request parameter past the server's configured
// ceiling.
type TooLargeError struct {
	Field string
	Value uint64
	Max   uint64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("%s %d exceeds the server limit %d", e.Field, e.Value, e.Max)
}

// BuildError wraps a workload construction failure (semantically invalid
// option combinations, e.g. a topology whose socket count does not divide
// the L3): the client's input, not the server's fault.
type BuildError struct {
	Workload string
	Err      error
}

func (e *BuildError) Error() string { return fmt.Sprintf("building %s: %v", e.Workload, e.Err) }

func (e *BuildError) Unwrap() error { return e.Err }

// buildSession constructs the workload instance and profiling session for a
// normalized key — the shared front half of the cold and warm-start run
// paths. onWindow, when non-nil, receives every window snapshot of a
// windowed key as its boundary closes. A key whose views read no address
// records (neither workingset nor missclass, which reads the working set)
// keeps none: its document is byte-identical without them.
func (s *Server) buildSession(k profileKey, onWindow func(*core.WindowSnapshot)) (*core.Session, error) {
	w, err := workload.Lookup(k.Workload)
	if err != nil {
		return nil, err
	}
	cfg, err := workload.NewConfig(w, k.Options)
	if err != nil {
		return nil, err
	}
	inst, err := workload.BuildInstance(w, cfg.WithQuick(k.Quick))
	if err != nil {
		return nil, &BuildError{Workload: k.Workload, Err: err}
	}

	pcfg := core.DefaultConfig()
	pcfg.SampleRate = k.Rate
	if !slices.Contains(k.Views, "workingset") && !slices.Contains(k.Views, "missclass") {
		pcfg.MaxAddrRecords = core.NoAddrRecords
	}
	scfg := core.SessionConfig{
		Profiler:     pcfg,
		Views:        k.Views,
		TypeName:     k.Type,
		Sets:         k.Sets,
		Warmup:       k.WarmupCycles,
		Measure:      k.MeasureCycles,
		WindowCycles: workload.WindowCycles(cfg),
		OnWindow:     onWindow,
	}
	return core.NewSession(inst, scfg)
}

// renderProfile serializes a finished session as the canonical
// core.ProfileDocument bytes (the same serializer cmd/dprof -json uses).
func renderProfile(sess *core.Session, k profileKey) ([]byte, error) {
	doc, err := core.BuildProfileDocument(sess, k.Views, k.Workload, k.Options, k.Quick)
	if err != nil {
		return nil, err
	}
	// Zero time: content-addressed documents must stay byte-identical for
	// the same key across replicas and restarts.
	doc.Stamp(core.SourceSim, time.Time{})
	return json.Marshal(doc)
}

// runProfile executes one normalized profiling session end to end: bounded
// by the worker pool, built through the registry's shared option path, run
// under a core.Session, and rendered as canonical document bytes. It is
// only ever called inside a flight, under the server's lifetime context.
//
// The session's warmup runs once per warm address and is captured in the
// checkpoint pool; every request forks its measured phase from that
// checkpoint, so requests that differ only in measured length skip the
// warmup simulation. Between requests the entry is parked
// (core.Checkpoint.Park): its machine hands its dense cache arrays to the
// cache package's recycler, and the next fork takes arrays back. Forks are
// byte-identical to cold runs (the core warm-start contract), so the body
// cache and the replica ring never observe the difference. A streamed
// request for a windowed key runs cold: a fork replays only the measured
// phase, but a live window stream owns the whole run. An unwindowed key
// has no windows to stream, so it forks whether streamed or not.
func (s *Server) runProfile(k profileKey, onWindow func(*core.WindowSnapshot)) (body []byte, err error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()

	if onWindow == nil || k.windowMs() == 0 {
		err = s.ckpts.Do(k.warmAddress(), func() (*core.Checkpoint, error) {
			sess, err := s.buildSession(k, nil)
			if err != nil {
				return nil, err
			}
			return sess.Warmup()
		}, func(cp *core.Checkpoint) error {
			s.simulations.Add(1)
			cp.Fork(k.MeasureCycles)
			body, err = renderProfile(cp.Session(), k)
			// Park only after the render: the working-set views read
			// SocketOccupancy off the live hierarchy.
			cp.Park()
			return err
		})
		return body, err
	}

	sess, err := s.buildSession(k, onWindow)
	if err != nil {
		return nil, err
	}
	// Counted here, after validation: Simulations() means simulations that
	// actually ran, not requests that failed session setup with a 4xx.
	s.simulations.Add(1)
	sess.Run()
	return renderProfile(sess, k)
}
