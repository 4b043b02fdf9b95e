package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API. Spans
// of one request (one deck key, one HTTP round trip, one experiment) share a
// request ID; Parent links a span to the span that caused it.
type Span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"` // since the tracer was created
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so recording costs an append under a lock and nothing else. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	id    int64
	start time.Time
	name  string
	par   int64
	req   int64
}

// start opens a span. On a nil tracer it returns an inert span whose ID is 0.
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), start: time.Now(), name: name, par: parent, req: req}
}

// newReq allocates a request ID (0 on a nil tracer).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.t != nil {
		s.t.add(s.id, s.name, s.par, s.req, s.start, time.Now())
	}
}

// record stores a span whose bounds the caller measured itself.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) {
	if t != nil {
		t.add(t.ids.Add(1), name, parent, req, start, end)
	}
}

func (t *tracer) add(id int64, name string, parent, req int64, start, end time.Time) {
	sp := Span{
		ID:      id,
		Parent:  parent,
		Req:     req,
		Name:    name,
		StartMs: ms(start.Sub(t.origin)),
		EndMs:   ms(end.Sub(t.origin)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// meanMs is the mean duration of the spans with this name, and how many
// there were.
func (t *tracer) meanMs(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, sp := range t.spans {
		if sp.Name == name {
			sum += sp.EndMs - sp.StartMs
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// write lands every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
