// Package pprofout serializes DProf profiles as gzipped pprof protobufs
// (the profile.proto format), so any profile the model can represent — a
// simulator session, an ingested perf.data capture, or a saved
// ProfileDocument — opens in `go tool pprof`, flamegraph viewers,
// and speedscope.
//
// DProf is data-centric where pprof is code-centric, so the export leans on
// pprof's stack mechanism to carry both: each sample's leaf frame is the
// data location ("type+0xoffset") and its caller frame is the code that
// touched it, with the type name repeated as a sample label. `pprof -top`
// then ranks data locations flat while cumulative weights land on code.
package pprofout

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"

	"dprof/internal/core"
	"dprof/internal/sym"
)

// profile.proto top-level field numbers.
const (
	fSampleType        = 1
	fSample            = 2
	fLocation          = 4
	fFunction          = 5
	fStringTable       = 6
	fTimeNanos         = 9
	fPeriodType        = 11
	fPeriod            = 12
	fDefaultSampleType = 14
)

// Meta is the caller-supplied identity of the exported profile.
type Meta struct {
	// TimeNanos is the profile's wall-clock timestamp (0 to omit, keeping
	// the output deterministic for tests and content addressing).
	TimeNanos int64
	// Comment lines are embedded in the profile (provenance, workload name).
	Comments []string
}

// builder accumulates the profile.proto tables.
type builder struct {
	strings  []string
	strIndex map[string]int64

	funcs   map[string]uint64 // name -> function/location id (1:1)
	funcIDs []uint64          // insertion order
	names   []string

	sampleTypes [][2]string // (type, unit)
	samples     []sampleRec
	defaultType string
	meta        Meta
}

type sampleRec struct {
	locs   []uint64
	values []int64
	labels [][2]string
}

func newBuilder(meta Meta, sampleTypes [][2]string, defaultType string) *builder {
	b := &builder{
		strIndex:    map[string]int64{"": 0},
		strings:     []string{""},
		funcs:       make(map[string]uint64),
		sampleTypes: sampleTypes,
		defaultType: defaultType,
		meta:        meta,
	}
	return b
}

func (b *builder) str(s string) int64 {
	if i, ok := b.strIndex[s]; ok {
		return i
	}
	i := int64(len(b.strings))
	b.strings = append(b.strings, s)
	b.strIndex[s] = i
	return i
}

// frame interns a named frame, returning its location id. Functions and
// locations are 1:1 (the model has no line/address detail to split on).
func (b *builder) frame(name string) uint64 {
	if id, ok := b.funcs[name]; ok {
		return id
	}
	id := uint64(len(b.funcIDs) + 1)
	b.funcs[name] = id
	b.funcIDs = append(b.funcIDs, id)
	b.names = append(b.names, name)
	return id
}

// add records one sample; frames are leaf-first, like pprof location order.
func (b *builder) add(frames []string, values []int64, labels [][2]string) {
	locs := make([]uint64, len(frames))
	for i, f := range frames {
		locs[i] = b.frame(f)
	}
	b.samples = append(b.samples, sampleRec{locs: locs, values: values, labels: labels})
}

// build serializes the accumulated profile, uncompressed.
func (b *builder) build() []byte {
	var p protoBuf
	for _, st := range b.sampleTypes {
		t, u := b.str(st[0]), b.str(st[1])
		p.msgField(fSampleType, func(m *protoBuf) {
			m.intField(1, t)
			m.intField(2, u)
		})
	}
	for _, s := range b.samples {
		// Intern label strings before entering the closure so the string
		// table is complete when it serializes.
		type lbl struct{ k, v int64 }
		labels := make([]lbl, len(s.labels))
		for i, kv := range s.labels {
			labels[i] = lbl{b.str(kv[0]), b.str(kv[1])}
		}
		p.msgField(fSample, func(m *protoBuf) {
			m.packedUints(1, s.locs)
			m.packedInts(2, s.values)
			for _, l := range labels {
				m.msgField(3, func(lm *protoBuf) {
					lm.intField(1, l.k)
					lm.intField(2, l.v)
				})
			}
		})
	}
	for i, id := range b.funcIDs {
		name := b.str(b.names[i])
		p.msgField(fLocation, func(m *protoBuf) {
			m.uintField(1, id) // location id
			m.msgField(4, func(lm *protoBuf) {
				lm.uintField(1, id) // line -> function id
			})
		})
		p.msgField(fFunction, func(m *protoBuf) {
			m.uintField(1, id)
			m.intField(2, name) // name
			m.intField(3, name) // system_name
		})
	}
	// Comments and period before the string table so their strings intern.
	commentIdx := make([]int64, 0, len(b.meta.Comments))
	for _, c := range b.meta.Comments {
		commentIdx = append(commentIdx, b.str(c))
	}
	pt, pu := b.str("event"), b.str("count")
	dt := b.str(b.defaultType)
	for _, s := range b.strings {
		// The zeroth entry is the mandatory empty string; bytesField elides
		// empty payloads, so write it with an explicit zero length.
		if s == "" {
			p.varint(uint64(fStringTable)<<3 | 2)
			p.varint(0)
			continue
		}
		p.strField(fStringTable, s)
	}
	p.intField(fTimeNanos, b.meta.TimeNanos)
	p.msgField(fPeriodType, func(m *protoBuf) {
		m.intField(1, pt)
		m.intField(2, pu)
	})
	p.intField(fPeriod, 1)
	for _, ci := range commentIdx {
		p.intField(13, ci)
	}
	p.intField(fDefaultSampleType, dt)
	return p.b
}

// gzipped wraps a serialized profile in the gzip framing `go tool pprof`
// expects on disk.
func gzipped(raw []byte) ([]byte, error) {
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// dataFrame renders the leaf "data location" frame for a type and offset.
func dataFrame(typeName string, offset uint32) string {
	return fmt.Sprintf("%s+0x%x", typeName, offset)
}

// EncodeSource exports a live profile source at full sample granularity:
// one pprof sample per (type, offset, PC) table key, valued by sample
// count, L1 misses, and summed access latency.
func EncodeSource(src core.ProfileSource, meta Meta) ([]byte, error) {
	src.Sync()
	st := src.SampleTable()
	b := newBuilder(meta, [][2]string{
		{"samples", "count"},
		{"l1_misses", "count"},
		{"latency", "cycles"},
	}, "l1_misses")

	for _, k := range st.Keys() {
		s := st.Get(k)
		typeName := "[unresolved]"
		if k.Type != nil {
			typeName = k.Type.Name
		}
		frames := []string{dataFrame(typeName, k.Offset), sym.Name(k.PC)}
		b.add(frames,
			[]int64{int64(s.Count), int64(s.Misses), int64(s.LatencySum)},
			[][2]string{{"type", typeName}})
	}
	return gzipped(b.build())
}

// EncodeDocument exports a saved ProfileDocument. Documents carry rendered
// views rather than raw samples, so the export is built from two of them:
// the data profile contributes per-type miss pressure (in permille of the
// run's miss samples, scaled by the type's miss share), and the path trace
// view contributes real stacks — each trace becomes a sample whose frames
// are the trace's code steps rooted at the type — valued by trace count.
func EncodeDocument(doc *core.ProfileDocument, meta Meta) ([]byte, error) {
	raw, err := doc.DataProfileExport()
	if err != nil {
		return nil, err
	}
	// The view exports' JSON field names are the documented stable surface,
	// so the exporter reads them like any external tool would.
	var dp struct {
		Rows []struct {
			Type    string  `json:"type"`
			MissPct float64 `json:"miss_pct"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &dp); err != nil {
		return nil, fmt.Errorf("pprof export: parse dataprofile view: %w", err)
	}

	b := newBuilder(meta, [][2]string{
		{"traces", "count"},
		{"miss_pressure", "permille"},
	}, "miss_pressure")

	for _, r := range dp.Rows {
		// Scale the row's miss percentage into an integer weight; permille
		// keeps one decimal of the rendered percentage.
		b.add([]string{dataFrame(r.Type, 0)},
			[]int64{0, int64(r.MissPct*10 + 0.5)},
			[][2]string{{"type", r.Type}})
	}

	if pt, ok := doc.Views["pathtrace"]; ok && len(pt) > 0 {
		var traces []struct {
			Type  string `json:"type"`
			Count uint64 `json:"count"`
			Steps []struct {
				Function string `json:"function"`
			} `json:"steps"`
		}
		if err := json.Unmarshal(pt, &traces); err != nil {
			return nil, fmt.Errorf("pprof export: parse pathtrace view: %w", err)
		}
		for _, tr := range traces {
			frames := make([]string, 0, len(tr.Steps)+1)
			for i := len(tr.Steps) - 1; i >= 0; i-- { // leaf first
				frames = append(frames, tr.Steps[i].Function)
			}
			frames = append(frames, dataFrame(tr.Type, 0))
			b.add(frames, []int64{int64(tr.Count), 0}, [][2]string{{"type", tr.Type}})
		}
	}
	return gzipped(b.build())
}
