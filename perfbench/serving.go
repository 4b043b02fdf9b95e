package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dprof/internal/serve"
)

// clients is how many closed-loop clients (and connections, and server
// workers) a serve workload uses: one per CPU of the two-CPU reference host.
const clients = 2

// harness is one dprofd instance on a loopback listener with its client.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	trans  *http.Transport
	client *http.Client
	served chan error
}

// serverConfig is the server shape every serve workload uses. The LRU holds
// half the deck, so the rest of the deck is served from the disk store. The
// checkpoint pool is sized to hold every warm address of the deck: eviction
// order would depend on client interleaving, and the capture count must
// repeat exactly.
func serverConfig(storeDir string, deckSize int) serve.Config {
	return serve.Config{
		Workers:             clients,
		CacheEntries:        deckSize / 2,
		Quick:               true,
		StoreDir:            storeDir,
		CheckpointPoolBytes: 1 << 30,
	}
}

// startServer builds a server over storeDir, serves it on a loopback port
// beside a no-op route (the HTTP floor), and opens both client connections.
func startServer(storeDir string, deckSize int) (*harness, error) {
	srv, err := serve.New(serverConfig(storeDir, deckSize))
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/noop", func(http.ResponseWriter, *http.Request) {})
	mux.Handle("/", srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	trans := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: mux},
		base:   "http://" + ln.Addr().String(),
		trans:  trans,
		client: &http.Client{Transport: trans},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = h.get("/healthz")
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the listener, waits for the serve loop to exit and cancels
// the server's pending work.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.srv.Shutdown()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	h.trans.CloseIdleConnections()
	return err
}

// get fetches a path and returns its status and body.
func (h *harness) get(path string) (int, []byte, error) {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Simulations int64 `json:"simulations"`
	Cache       struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Singleflight struct {
		Deduplicated int64 `json:"deduplicated"`
	} `json:"singleflight"`
	Store struct {
		Hits int64 `json:"hits"`
		Puts int64 `json:"puts"`
	} `json:"store"`
	Checkpoints struct {
		Captures  int64 `json:"captures"`
		Forks     int64 `json:"forks"`
		Evictions int64 `json:"evictions"`
	} `json:"checkpoints"`
}

func (h *harness) stats() (serverStats, error) {
	var st serverStats
	code, body, err := h.get("/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// httpFloor times n no-op round trips on the same client and listener: the
// part of every response no change to dprofd can remove.
func (h *harness) httpFloor(n int, tr *tracer) error {
	for i := 0; i < n; i++ {
		sp := tr.start("serve.http_floor", 0, tr.newReq())
		code, _, err := h.get("/bench/noop")
		sp.end()
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("no-op route: status %d", code)
		}
	}
	return nil
}

// passResult is what the clients observed over one pass.
type passResult struct {
	elapsed   time.Duration
	latMs     []float64            // every completed request
	byClass   map[string][]float64 // latency by disposition (pprof_ prefixed for pprof)
	attempted int
	failed    int
	errs      []error // first few failures, for the report
}

// runPass sends seq over the closed-loop clients: each takes the next
// request only once its previous response is fully read. Latency runs from
// send to the last body byte. Every body is byte-compared with the library
// render of its key, whichever cache layer served it; a mismatch is a
// failed operation.
func (h *harness) runPass(seq []request, refs map[*entry]*reference, tr *tracer, parent int64) passResult {
	type clientOut struct {
		lat     []float64
		byClass map[string][]float64
		failed  int
		errs    []error
	}
	outs := make([]clientOut, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			out.byClass = map[string][]float64{}
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				rq := seq[i]
				class, lat, err := h.send(rq, &buf, tr, parent)
				if err != nil {
					out.failed++
					if len(out.errs) < 3 {
						out.errs = append(out.errs, fmt.Errorf("%s: %w", rq.e, err))
					}
					continue
				}
				out.lat = append(out.lat, lat)
				out.byClass[class] = append(out.byClass[class], lat)
				if !bytes.Equal(buf.Bytes(), refs[rq.e].body(rq.pprof)) {
					out.failed++
					if len(out.errs) < 3 {
						out.errs = append(out.errs, fmt.Errorf("%s (pprof=%t, %s): served body differs from the library render", rq.e, rq.pprof, class))
					}
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	res := passResult{
		elapsed:   time.Since(start),
		byClass:   map[string][]float64{},
		attempted: len(seq),
	}
	for _, o := range outs {
		res.latMs = append(res.latMs, o.lat...)
		for k, v := range o.byClass {
			res.byClass[k] = append(res.byClass[k], v...)
		}
		res.failed += o.failed
		res.errs = append(res.errs, o.errs...)
	}
	return res
}

// send issues one deck request and reads the whole body into buf. It
// returns the response's class — its X-DProf-Cache disposition, prefixed
// "pprof_" for pprof — and its latency in milliseconds.
func (h *harness) send(rq request, buf *bytes.Buffer, tr *tracer, parent int64) (string, float64, error) {
	url := h.base + rq.e.path
	if rq.pprof {
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		url += sep + "format=pprof"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rq.e.body))
	if err != nil {
		return "", 0, err
	}
	name := "http.profile"
	if rq.e.ingest() {
		name = "http.ingest"
	}
	sp := tr.start(name, parent, tr.newReq())
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		sp.end()
		return "", 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	class := resp.Header.Get("X-DProf-Cache")
	if rq.pprof {
		class = "pprof_" + class
	}
	return class, ms(d), nil
}

// deckShape counts what one cold pass must simulate: one simulation per
// profile key, one checkpoint capture per warm address.
func deckShape(deck []*entry) (profiles, warm int) {
	seen := map[string]bool{}
	for _, e := range deck {
		if e.ingest() {
			continue
		}
		profiles++
		if !seen[e.warmKey()] {
			seen[e.warmKey()] = true
			warm++
		}
	}
	return profiles, warm
}

// tempStore makes a fresh store directory under the work directory.
func tempStore(workdir string) (string, error) {
	base := workdir + "/tmp"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "store-")
}
