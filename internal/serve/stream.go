package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// streamer writes progress events to a client as either NDJSON (one JSON
// object per line) or Server-Sent Events, flushing after every event so a
// watching client sees progress live.
type streamer struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
}

// newStreamer returns a streamer when the request asked for one —
// ?stream=ndjson, ?stream=sse, ?stream=1 (NDJSON), or an Accept header of
// text/event-stream — and nil for a plain request. It writes the response
// header, so call it before any status code is set.
func newStreamer(w http.ResponseWriter, r *http.Request) *streamer {
	if !streamed(r) {
		return nil
	}
	sse := r.URL.Query().Get("stream") == "sse" || r.Header.Get("Accept") == "text/event-stream"
	st := &streamer{w: w, sse: sse}
	st.fl, _ = w.(http.Flusher)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	st.flush()
	return st
}

// streamed reports whether r asks for a stream (see newStreamer).
func streamed(r *http.Request) bool {
	return r.URL.Query().Get("stream") != "" || r.Header.Get("Accept") == "text/event-stream"
}

// event emits one named event. NDJSON: {"event":name,"data":...}\n.
// SSE: event:/data: framing.
func (st *streamer) event(name string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		raw = []byte(fmt.Sprintf("%q", "marshal: "+err.Error()))
	}
	if st.sse {
		fmt.Fprintf(st.w, "event: %s\ndata: %s\n\n", name, raw)
	} else {
		fmt.Fprintf(st.w, `{"event":%q,"data":%s}`+"\n", name, raw)
	}
	st.flush()
}

// comment emits a keep-alive that carries no event semantics (an SSE
// comment line, or an NDJSON object with only a "comment" key).
func (st *streamer) comment(text string) {
	if st.sse {
		fmt.Fprintf(st.w, ": %s\n\n", text)
	} else {
		fmt.Fprintf(st.w, `{"comment":%q}`+"\n", text)
	}
	st.flush()
}

func (st *streamer) flush() {
	if st.fl != nil {
		st.fl.Flush()
	}
}

// stream is the one streaming bridge: the result alone on an LRU hit;
// otherwise the accepted event (profiles), the run's events live from a
// local flight (live events cannot cross a proxy hop), then the result or
// error. Only the flight leader's run emits: a client that joins someone
// else's flight receives keep-alives and then the shared result.
func (s *Server) stream(st *streamer, ctx context.Context, j job) {
	if body, ok := s.lookup(j.addr); ok {
		st.event("result", json.RawMessage(body))
		return
	}
	if j.workload != "" {
		st.event("accepted", map[string]any{"address": j.addr, "workload": j.workload})
	}
	type event struct {
		name string
		data any
	}
	// A few events of slack let the run outpace a slow client write;
	// past it emit drops events rather than stall the run.
	events := make(chan event, 8)
	emit := func(name string, data any) {
		select {
		case events <- event{name, data}:
		default: // this handler may be gone; never block the run
		}
	}
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, _, err := s.flight(ctx, j.addr, s.readThrough(j, emit))
		done <- outcome{body, err}
	}()
	for {
		select {
		case ev := <-events:
			st.event(ev.name, ev.data)
		case out := <-done:
			// Relay events the run emitted before it finished, so the
			// stream always shows the last one before the result.
			for len(events) > 0 {
				ev := <-events
				st.event(ev.name, ev.data)
			}
			if out.err != nil {
				st.event("error", map[string]any{"error": out.err.Error(), "status": statusFor(out.err)})
				return
			}
			st.event("result", json.RawMessage(out.body))
			return
		case <-time.After(15 * time.Second):
			// Keep-alive for proxies while a long run goes on.
			st.comment("running")
		}
	}
}
