package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
func (k profileKey) address() string {
	raw, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("serve: profile key not marshalable: %v", err)) // plain data; cannot happen
	}
	sum := sha256.Sum256(raw)
	return "profile/" + hex.EncodeToString(sum[:])
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
	} else {
		for _, v := range req.Views {
			if !slices.Contains(core.KnownViews, v) {
				return profileKey{}, &core.UnknownViewError{Name: v}
			}
		}
		// Canonical order and deduplication: the view set, not its spelling,
		// addresses the session.
		for _, v := range core.KnownViews {
			if slices.Contains(req.Views, v) {
				k.Views = append(k.Views, v)
			}
		}
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
	if wms, err := strconv.ParseUint(k.Options["window-ms"], 10, 64); err == nil && wms > 0 {
		if n := (k.WarmupCycles + k.MeasureCycles) / (wms * 1_000_000); n > maxWindows {
			return profileKey{}, &TooLargeError{Field: "windows", Value: n, Max: maxWindows}
		}
	}
	return k, nil
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
// paths. onWindow, when non-nil and the session is windowed (window-ms > 0),
// receives every window snapshot as its boundary closes.
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
	scfg := core.SessionConfig{
		Profiler:     pcfg,
		Views:        k.Views,
		TypeName:     k.Type,
		Sets:         k.Sets,
		Warmup:       k.WarmupCycles,
		Measure:      k.MeasureCycles,
		WindowCycles: workload.WindowCycles(cfg),
	}
	if onWindow != nil && scfg.WindowCycles > 0 {
		scfg.OnWindow = onWindow
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
// under a core.Session (or forked from a pooled warmup checkpoint), and
// rendered as canonical document bytes. It is only ever called inside a
// flight, under the server's lifetime context. Streamed (windowed) sessions
// always run cold: a checkpoint fork replays only the measured phase, but a
// live window stream owns the whole run.
func (s *Server) runProfile(k profileKey, onWindow func(*core.WindowSnapshot)) ([]byte, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()

	if onWindow == nil && s.ckpts != nil {
		return s.runProfileWarm(k)
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
