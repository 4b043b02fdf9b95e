package workload

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"dprof/internal/sim"
)

// TestCanonicalizeUnifiesFlagAndBodySyntax locks the shared parse path: any
// value the flag package would accept on the CLI must be accepted (and
// canonicalized identically) when it arrives in an HTTP request body.
func TestCanonicalizeUnifiesFlagAndBodySyntax(t *testing.T) {
	tests := []struct {
		kind Kind
		in   string
		want string
	}{
		{Bool, "1", "true"},
		{Bool, "TRUE", "true"},
		{Bool, "t", "true"},
		{Bool, "0", "false"},
		{Int, "42", "42"},
		{Int, "0x10", "16"},    // flag.Int accepts base-prefixed ints
		{Int, "1_000", "1000"}, // and underscore separators
		{Int, "-0o17", "-15"},
		{Float, "0.25", "0.25"},
		{Float, "1e9", "1e+09"},
		{Float, "110000", "110000"},
		{Str, "firsttouch", "firsttouch"},
		{Str, "", ""},
	}
	for _, tt := range tests {
		o := Option{Name: "x", Kind: tt.kind}
		got, err := o.Canonicalize(tt.in)
		if err != nil {
			t.Errorf("%s %q: unexpected error %v", tt.kind, tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s %q: canonical %q, want %q", tt.kind, tt.in, got, tt.want)
		}
	}
	for _, bad := range []struct {
		kind Kind
		in   string
	}{{Bool, "maybe"}, {Int, "1.5"}, {Int, ""}, {Float, "fast"}} {
		o := Option{Name: "x", Kind: bad.kind}
		if _, err := o.Canonicalize(bad.in); err == nil {
			t.Errorf("%s %q: bad value not rejected", bad.kind, bad.in)
		}
	}
}

// FuzzOptionCanonicalize: for every kind, a canonical form is a fixed
// point. Whenever Canonicalize(v) succeeds with c, Canonicalize(c) must
// return c and no error, so a canonical option map re-canonicalizes to
// itself and a content address never depends on how a value was spelled.
func FuzzOptionCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		for _, k := range []Kind{Bool, Int, Float, Str} {
			o := Option{Name: "x", Kind: k}
			c, err := o.Canonicalize(v)
			if err != nil {
				continue
			}
			if again, err := o.Canonicalize(c); err != nil || again != c {
				t.Fatalf("%s %q: canonical %q re-canonicalizes to %q, %v", k, v, c, again, err)
			}
		}
	})
}

// TestNewConfigStoresCanonicalValues: the config getters must see the same
// value whether the input came in flag syntax or canonical syntax.
func TestNewConfigStoresCanonicalValues(t *testing.T) {
	w := fakeWL{name: "canon-test"}
	cfg, err := NewConfig(w, map[string]string{"flag": "1", "count": "0x10"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Bool("flag") || cfg.Int("count") != 16 {
		t.Errorf("canonical values not applied: %v %v", cfg.Bool("flag"), cfg.Int("count"))
	}
}

// TestCanonicalOptionsContentAddress locks the cache-key property: equal-
// meaning inputs produce identical complete maps, regardless of whether an
// option was set explicitly, set to its default, or left unset.
func TestCanonicalOptionsContentAddress(t *testing.T) {
	w := fakeWL{name: "canonopts-test"}

	unset, err := CanonicalOptions(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"flag": "true", "count": "7", "ratio": "1.5"}
	if !reflect.DeepEqual(unset, want) {
		t.Fatalf("CanonicalOptions(nil) = %v, want %v", unset, want)
	}

	explicit, err := CanonicalOptions(w, map[string]string{"flag": "1", "count": "0x7"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, unset) {
		t.Errorf("set-to-default differs from unset: %v vs %v", explicit, unset)
	}

	if _, err := CanonicalOptions(w, map[string]string{"bogus": "1"}); err == nil {
		t.Error("undeclared option not rejected")
	}
	if _, err := CanonicalOptions(w, map[string]string{"count": "x"}); err == nil {
		t.Error("bad value not rejected")
	}
}

// TestRegisterFlagsSharedPath: the CLI flag binding must hand back exactly
// the explicitly-set options, in canonical form, and leave defaults out.
func TestRegisterFlagsSharedPath(t *testing.T) {
	Register(fakeWL{name: "flags-test"})
	t.Cleanup(func() { delete(registry, "flags-test") })

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fv := RegisterFlags(fs)
	if err := fs.Parse([]string{"-count", "0x10", "-flag=1"}); err != nil {
		t.Fatal(err)
	}
	got := fv.Explicit(fs)
	want := map[string]string{"count": "16", "flag": "true"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Explicit = %v, want %v", got, want)
	}
}

// TestApplySeed: zero keeps the workload's built-in seed; anything else
// overrides it.
func TestApplySeed(t *testing.T) {
	w := fakeSeedWL{}
	scfg := sim.DefaultConfig()
	ApplySeed(Defaults(w), &scfg)
	if scfg.Seed != sim.DefaultConfig().Seed {
		t.Errorf("default seed overridden: %d", scfg.Seed)
	}
	cfg, err := NewConfig(w, map[string]string{"seed": "99"})
	if err != nil {
		t.Fatal(err)
	}
	ApplySeed(cfg, &scfg)
	if scfg.Seed != 99 {
		t.Errorf("seed = %d, want 99", scfg.Seed)
	}
}

type fakeSeedWL struct{ fakeWL }

func (fakeSeedWL) Name() string      { return "seed-test" }
func (fakeSeedWL) Options() []Option { return []Option{SeedOption()} }
