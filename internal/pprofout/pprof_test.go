package pprofout

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dprof/internal/core"
	"dprof/internal/perfin"
)

// decodedProfile is the subset of profile.proto the tests verify, recovered
// by a minimal independent wire-format reader so the encoder is not checked
// against itself.
type decodedProfile struct {
	strings     []string
	sampleTypes int
	samples     int
	locations   int
	functions   int
	defaultType int64
}

func decode(t *testing.T, gz []byte) decodedProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	var d decodedProfile
	for off := 0; off < len(raw); {
		key, n := binary.Uvarint(raw[off:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += n
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(raw[off:])
			if n <= 0 {
				t.Fatalf("bad varint value at %d", off)
			}
			off += n
			if field == fDefaultSampleType {
				d.defaultType = int64(v)
			}
		case 2:
			l, n := binary.Uvarint(raw[off:])
			if n <= 0 || off+n+int(l) > len(raw) {
				t.Fatalf("bad length at %d", off)
			}
			body := raw[off+n : off+n+int(l)]
			off += n + int(l)
			switch field {
			case fSampleType:
				d.sampleTypes++
			case fSample:
				d.samples++
			case fLocation:
				d.locations++
			case fFunction:
				d.functions++
			case fStringTable:
				d.strings = append(d.strings, string(body))
			}
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
	return d
}

func fixtureSource(t *testing.T) *perfin.Profile {
	t.Helper()
	p, err := perfin.Parse(perfin.FixtureBytes())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEncodeSourceStructure(t *testing.T) {
	p := fixtureSource(t)
	gz, err := EncodeSource(p.Source, Meta{Comments: []string{"source=perf"}})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, gz)
	if d.sampleTypes != 3 {
		t.Fatalf("sample types = %d, want 3", d.sampleTypes)
	}
	if d.samples == 0 || d.locations == 0 || d.functions != d.locations {
		t.Fatalf("samples=%d locations=%d functions=%d", d.samples, d.locations, d.functions)
	}
	if d.strings[0] != "" {
		t.Fatalf("string_table[0] = %q, want empty", d.strings[0])
	}
	joined := strings.Join(d.strings, "\n")
	for _, want := range []string{"l1_misses", "ring_buffer+0x40", "ringd+0x100", "source=perf", "[unresolved]+0x0"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q", want)
		}
	}
	if d.defaultType <= 0 || d.strings[d.defaultType] != "l1_misses" {
		t.Fatalf("default sample type = %v", d.defaultType)
	}
}

func TestEncodeSourceDeterministic(t *testing.T) {
	p := fixtureSource(t)
	a, err := EncodeSource(p.Source, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSource(fixtureSource(t).Source, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same profile encoded to different bytes")
	}
}

func TestEncodeDocument(t *testing.T) {
	doc := &core.ProfileDocument{
		Workload: "w",
		Views: map[string]json.RawMessage{
			"dataprofile": json.RawMessage(`{"total_samples":10,"total_miss_samples":5,"rows":[
				{"type":"msg","miss_pct":62.5},{"type":"idx","miss_pct":10.0}]}`),
			"pathtrace": json.RawMessage(`[{"type":"msg","count":7,"steps":[
				{"function":"alloc"},{"function":"enqueue"},{"function":"consume"}]}]`),
		},
	}
	gz, err := EncodeDocument(doc, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	d := decode(t, gz)
	if d.sampleTypes != 2 {
		t.Fatalf("sample types = %d", d.sampleTypes)
	}
	if d.samples != 3 { // 2 type rows + 1 trace
		t.Fatalf("samples = %d, want 3", d.samples)
	}
	joined := strings.Join(d.strings, "\n")
	for _, want := range []string{"msg+0x0", "idx+0x0", "alloc", "enqueue", "consume", "miss_pressure"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q", want)
		}
	}
}

func TestEncodeDocumentWithoutDataProfileFails(t *testing.T) {
	doc := &core.ProfileDocument{Views: map[string]json.RawMessage{}}
	if _, err := EncodeDocument(doc, Meta{}); err == nil {
		t.Fatal("document without dataprofile view must not export")
	}
}

// TestGoToolPprofReadsExport is the end-to-end acceptance check: the real
// `go tool pprof -top` must parse the export and rank the hot data frame.
func TestGoToolPprofReadsExport(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go binary not on PATH")
	}
	p := fixtureSource(t)
	gz, err := EncodeSource(p.Source, Meta{TimeNanos: 1, Comments: []string{"dprof test export"}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.pb.gz")
	if err := os.WriteFile(path, gz, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=5", path)
	cmd.Env = append(os.Environ(), "HOME="+t.TempDir(), "PPROF_NO_BROWSER=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ring_buffer") {
		t.Fatalf("pprof -top output missing hot type:\n%s", out)
	}
}

// freshGzip is the reference the pooled compressor must match: a new
// gzip.Writer per call.
func freshGzip(t testing.TB, raw []byte) []byte {
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPooledGzipMatchesFresh: a compressor reused from the pool writes the
// bytes a fresh gzip.NewWriter writes, for inputs of different sizes in
// turn (so a reused writer carries state from a larger or smaller input)
// and from concurrent goroutines.
func TestPooledGzipMatchesFresh(t *testing.T) {
	inputs := [][]byte{nil, []byte("x")}
	for _, n := range []int{1 << 10, 96 << 10, 16 << 10} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*i>>5) ^ byte(i>>9)
		}
		inputs = append(inputs, b)
	}
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		want[i] = freshGzip(t, in)
	}
	for round := range 3 {
		for i, in := range inputs {
			got, err := gzipped(in)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d input %d: pooled output differs from a fresh writer's", round, i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 20 {
				i := (g + r) % len(inputs)
				got, err := gzipped(inputs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d input %d: pooled output differs from a fresh writer's", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// goldenDocument is the memcached document golden: all five views, so the
// export carries both data-profile rows and path-trace stacks.
func goldenDocument(b *testing.B) *core.ProfileDocument {
	raw, err := os.ReadFile(filepath.Join("..", "app", "workload", "testdata", "doc_goldens", "memcached.json"))
	if err != nil {
		b.Fatal(err)
	}
	var golden struct {
		Document json.RawMessage `json:"document"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		b.Fatal(err)
	}
	doc, err := core.ParseDocument(golden.Document)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// BenchmarkEncodeDocument times one document's pprof conversion, the work
// dprofd does on the first ?format=pprof request for a resident document.
// Its allocations are the profile tables and the output: a fresh flate
// compressor per call would add ~800 KB/op. One conversion before the
// timed loop stocks the compressor pool, as any earlier request would.
func BenchmarkEncodeDocument(b *testing.B) {
	doc := goldenDocument(b)
	meta := Meta{Comments: []string{"dprofd: " + doc.Workload}}
	if _, err := EncodeDocument(doc, meta); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EncodeDocument(doc, meta); err != nil {
			b.Fatal(err)
		}
	}
}
