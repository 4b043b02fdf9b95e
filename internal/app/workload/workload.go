// Package workload is the pluggable workload registry: the layer that turns
// "add a scenario" into a one-file, one-registration change.
//
// A Workload declares its name, description, typed options, default run
// windows, and a Build constructor returning a core.Runnable a profiling
// core.Session can drive. Workload packages under internal/app register
// themselves from init; consumers (cmd/dprof, internal/exp, examples) import
// dprof/internal/app/all for the side effect and then build machines
// exclusively through Lookup/Build — no per-workload switches.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dprof/internal/core"
)

// Kind is the type of a workload option value.
type Kind int

const (
	// Bool options parse "true"/"false" (and flag-style "1"/"0").
	Bool Kind = iota
	// Int options parse decimal integers.
	Int
	// Float options parse decimal floating-point numbers.
	Float
	// Str options carry free-form strings (e.g. allocation-policy names);
	// the workload's Build validates the value.
	Str
)

// String names the kind (for usage text).
func (k Kind) String() string {
	switch k {
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	}
	return "unknown"
}

// Option declares one workload-specific knob (a CLI flag on cmd/dprof).
type Option struct {
	Name    string
	Kind    Kind
	Default string // zero value of the kind when empty
	Usage   string
}

// Windows are a workload's default warmup and measurement windows in
// simulated cycles; quick variants trade precision for speed (tests,
// smoke runs).
type Windows struct {
	Warmup  uint64
	Measure uint64
}

// Workload is one registered scenario: everything a consumer needs to list
// it, parameterize it, and build a runnable instance of it.
type Workload interface {
	// Name is the registry key and the cmd/dprof -workload value.
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Options declares the workload-specific knobs; option values outside
	// this set are rejected by NewConfig.
	Options() []Option
	// Windows returns the default run windows.
	Windows(quick bool) Windows
	// DefaultTarget names the default dataflow/pathtrace target type
	// ("" when the workload has no natural target).
	DefaultTarget() string
	// Build constructs a runnable instance from validated options.
	Build(cfg Config) (core.Runnable, error)
}

// Config carries validated option values into Build. The zero value is not
// usable; construct with NewConfig (or Defaults).
type Config struct {
	quick bool
	vals  map[string]string
	decl  map[string]Option
}

// UnknownOptionError reports an option the selected workload does not
// declare.
type UnknownOptionError struct {
	Workload string
	Option   string
	Declared []string
}

func (e *UnknownOptionError) Error() string {
	declared := "none"
	if len(e.Declared) > 0 {
		declared = strings.Join(e.Declared, ", ")
	}
	return fmt.Sprintf("workload %q does not accept option %q (declared options: %s)",
		e.Workload, e.Option, declared)
}

// BadValueError reports an option value that does not parse as its declared
// kind.
type BadValueError struct {
	Workload string
	Option   string
	Kind     Kind
	Value    string
}

func (e *BadValueError) Error() string {
	return fmt.Sprintf("workload %q option %q: bad %s value %q",
		e.Workload, e.Option, e.Kind, e.Value)
}

// NewConfig validates vals against w's declared options: unknown names,
// unparsable values and a window-ms whose cycle count overflows are errors.
// Valid values are stored in canonical form (see Option.Canonicalize), so
// every consumer — CLI flags, HTTP request bodies, cache keys — goes through
// one parse path. Undeclared-but-unset options fall back to their declared
// defaults in the typed getters.
func NewConfig(w Workload, vals map[string]string) (Config, error) {
	decl := make(map[string]Option)
	var names []string
	for _, o := range w.Options() {
		decl[o.Name] = o
		names = append(names, o.Name)
	}
	sort.Strings(names)
	cfg := Config{vals: make(map[string]string, len(vals)), decl: decl}
	// Deterministic error selection when several values are bad.
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, name := range keys {
		o, ok := decl[name]
		if !ok {
			return Config{}, &UnknownOptionError{Workload: w.Name(), Option: name, Declared: names}
		}
		canon, err := o.Canonicalize(vals[name])
		if err != nil || name == windowOption && !windowFits(canon) {
			return Config{}, &BadValueError{Workload: w.Name(), Option: name, Kind: o.Kind, Value: vals[name]}
		}
		cfg.vals[name] = canon
	}
	return cfg, nil
}

// CanonicalOptions validates vals against w and returns the complete option
// map: every declared option, with explicitly-set values canonicalized and
// unset ones filled from their declared defaults. Equal-meaning inputs
// ("1"/"true"/"TRUE", "0x10"/"16", set-to-default/absent) all map to one
// canonical form, which makes the result usable as content-address material
// for cached profiling sessions.
func CanonicalOptions(w Workload, vals map[string]string) (map[string]string, error) {
	cfg, err := NewConfig(w, vals)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(cfg.decl))
	for name, o := range cfg.decl {
		if v, ok := cfg.vals[name]; ok {
			out[name] = v
			continue
		}
		canon, err := o.Canonicalize(orKindZero(o.Kind, o.Default))
		if err != nil {
			// A declared default that does not parse as its own kind is a
			// workload bug; the typed getters panic on it, so surface it here
			// the same way rather than silently poisoning cache keys.
			panic(fmt.Sprintf("workload: option %q default %q is not a %s", name, o.Default, o.Kind))
		}
		out[name] = canon
	}
	return out, nil
}

// orKindZero substitutes a kind's zero literal for an empty default.
func orKindZero(k Kind, v string) string {
	if v != "" || k == Str {
		return v
	}
	switch k {
	case Bool:
		return "false"
	case Int:
		return "0"
	case Float:
		return "0"
	}
	return v
}

// Defaults returns a Config with every option at its declared default.
func Defaults(w Workload) Config {
	cfg, err := NewConfig(w, nil)
	if err != nil {
		panic(err) // nil vals cannot fail validation
	}
	return cfg
}

// WithQuick marks the config as a quick (reduced-fidelity) build; workloads
// may shrink internal dimensions in response.
func (c Config) WithQuick(quick bool) Config {
	c.quick = quick
	return c
}

// Quick reports whether the build should trade precision for speed.
func (c Config) Quick() bool { return c.quick }

// Declared reports whether the workload declares an option, so shared
// helpers can probe before reading (the typed getters panic on undeclared
// names).
func (c Config) Declared(name string) bool {
	_, ok := c.decl[name]
	return ok
}

// Canonicalize parses v as the option's kind and returns its canonical
// string form: "true"/"false" for bools, base-10 for ints, shortest-form
// for floats. Int values accept the same syntax the flag package does
// (0x1f, 0o17, 0b101, 1_000), so a value that works as a CLI flag works
// verbatim in an HTTP request body — this parser is the single path both
// go through.
func (o Option) Canonicalize(v string) (string, error) {
	switch o.Kind {
	case Bool:
		b, err := strconv.ParseBool(v)
		if err != nil {
			return "", err
		}
		return strconv.FormatBool(b), nil
	case Int:
		n, err := strconv.ParseInt(v, 0, 64)
		if err != nil {
			return "", err
		}
		return strconv.FormatInt(n, 10), nil
	case Float:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return "", err
		}
		return strconv.FormatFloat(f, 'g', -1, 64), nil
	case Str:
		// Any string parses; Build validates the value.
		return v, nil
	}
	return "", fmt.Errorf("workload: unknown option kind %d", o.Kind)
}

// raw returns the set value or the declared default. It panics on undeclared
// names: getters are called by the workload's own Build, so a miss is a
// programming error, not user input.
func (c Config) raw(name string, want Kind) string {
	o, ok := c.decl[name]
	if !ok {
		panic(fmt.Sprintf("workload: option %q not declared", name))
	}
	if o.Kind != want {
		panic(fmt.Sprintf("workload: option %q is %s, read as %s", name, o.Kind, want))
	}
	if v, ok := c.vals[name]; ok {
		return v
	}
	return o.Default
}

// Bool returns a declared Bool option's value.
func (c Config) Bool(name string) bool {
	v := c.raw(name, Bool)
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		panic(fmt.Sprintf("workload: option %q default %q is not a bool", name, v))
	}
	return b
}

// Int returns a declared Int option's value.
func (c Config) Int(name string) int {
	v := c.raw(name, Int)
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(fmt.Sprintf("workload: option %q default %q is not an int", name, v))
	}
	return n
}

// Float returns a declared Float option's value.
func (c Config) Float(name string) float64 {
	v := c.raw(name, Float)
	if v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(fmt.Sprintf("workload: option %q default %q is not a float", name, v))
	}
	return f
}

// Str returns a declared Str option's value.
func (c Config) Str(name string) string {
	return c.raw(name, Str)
}

// --- registry ---

var registry = make(map[string]Workload)

// UnknownWorkloadError reports a request for a workload that is not
// registered; Known carries the valid set.
type UnknownWorkloadError struct {
	Name  string
	Known []string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("unknown workload %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// Register adds a workload to the registry. It is meant to be called from
// package init functions; duplicate or empty names panic.
func Register(w Workload) {
	name := w.Name()
	if name == "" {
		panic("workload: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry[name] = w
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns a registered workload.
func Get(name string) (Workload, bool) {
	w, ok := registry[name]
	return w, ok
}

// Lookup returns a registered workload or an UnknownWorkloadError carrying
// the valid set.
func Lookup(name string) (Workload, error) {
	if w, ok := registry[name]; ok {
		return w, nil
	}
	return nil, &UnknownWorkloadError{Name: name, Known: Names()}
}

// Build resolves a workload by name, validates the option values, and
// constructs an instance — the one-call path for consumers that do not need
// the Workload metadata.
func Build(name string, vals map[string]string) (core.Runnable, error) {
	w, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	cfg, err := NewConfig(w, vals)
	if err != nil {
		return nil, err
	}
	return BuildInstance(w, cfg)
}

// BuildInstance constructs a runnable instance of w from a validated config:
// the one build path every consumer (Build, dprofd, replay tools) shares.
func BuildInstance(w Workload, cfg Config) (core.Runnable, error) {
	return w.Build(cfg)
}

// MustBuild is Build for callers whose workload names and options are
// compile-time constants (experiments, benchmarks); errors panic.
func MustBuild(name string, vals map[string]string) core.Runnable {
	inst, err := Build(name, vals)
	if err != nil {
		panic(err)
	}
	return inst
}
