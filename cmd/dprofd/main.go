// Command dprofd serves DProf over HTTP: a long-running profiling service
// with content-addressed, deduplicated, cached sessions on top of the same
// workload registry and experiment engine the dprof CLI drives.
//
// Endpoints:
//
//	GET  /workloads             the workload registry (options, windows)
//	GET  /experiments           the paper-experiment registry
//	GET  /experiments/{name}    run one experiment (?quick=1, ?stream=ndjson|sse)
//	POST /profile               run a profiling session (JSON body; ?stream=...
//	                            streams window snapshots live on windowed runs)
//	POST /diff                  diff two profiling sessions' data profiles
//	GET  /object/{addr}         a stored document by content address (peer fetch)
//	GET  /stats                 cache/store/peer + singleflight counters
//	GET  /healthz               liveness + cache/worker counters
//
// Identical concurrent requests share one simulation (singleflight) and
// byte-identical responses; repeats are served from an LRU without
// simulating at all. With -store-dir, finished documents also persist in a
// disk content-addressed store, so a restarted daemon serves warm profiles
// without simulating. With -self/-peers, a replica fleet consistent-hashes
// every request to one owner, making the dedup guarantee fleet-wide. See
// the README's dprofd and "Scaling dprofd" sections for curl examples.
//
// Usage:
//
//	dprofd -addr :7071
//	dprofd -addr :7071 -workers 4 -cache-entries 512 -quick
//	dprofd -addr :7071 -store-dir /var/lib/dprofd
//	dprofd -addr :7071 -store-dir /var/lib/dprofd -store-max-bytes 268435456
//	dprofd -addr :7071 -store-dir /var/lib/dprofd \
//	       -self http://a:7071 -peers http://a:7071,http://b:7071,http://c:7071
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dprof/internal/serve"
)

func main() {
	// SIGTERM is what container runtimes send on stop; both signals take
	// the graceful path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts. A client has readHeaderTimeout to send its request
// headers, so a stalled or slow-loris connection cannot hold a goroutine
// forever, and a keep-alive connection idle for idleTimeout is closed.
// There is deliberately no WriteTimeout (nor ReadTimeout, which would bound
// uploads): NDJSON/SSE streams and 60 s simulations outlive any fixed
// deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's http.Server for handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprofd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":7071", "listen address")
		workers  = fs.Int("workers", 0, "max concurrent simulations (0 = all cores)")
		entries  = fs.Int("cache-entries", 256, "LRU capacity in finished responses")
		quick    = fs.Bool("quick", false, "default to quick (reduced-fidelity) sessions")
		maxMs    = fs.Uint64("max-measure-ms", 60_000, "largest measured window a request may ask for, simulated ms")
		storeDir = fs.String("store-dir", "", "disk profile store directory (empty = in-memory LRU only)")
		storeMax = fs.Int64("store-max-bytes", 0, "disk store byte budget; over-budget writes sweep the least recently read profiles (0 = unbounded)")
		self     = fs.String("self", "", "this replica's URL as peers reach it (required with -peers)")
		peers    = fs.String("peers", "", "comma-separated replica URLs forming the consistent-hash ring")
		ckptMax  = fs.Int64("checkpoint-pool-bytes", 0, "warm-start checkpoint pool byte budget, charged by what each parked entry keeps: its snapshot and its live workload, kernel, allocator and profiler objects (0 = 256 MiB default; must not be negative)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var replicas []string
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(stderr, "dprofd: -peers requires -self (this replica's URL as peers reach it)")
			return 2
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				replicas = append(replicas, p)
			}
		}
	}

	if *storeMax > 0 && *storeDir == "" {
		fmt.Fprintln(stderr, "dprofd: -store-max-bytes requires -store-dir")
		return 2
	}
	if *ckptMax < 0 {
		fmt.Fprintln(stderr, "dprofd: -checkpoint-pool-bytes must not be negative (0 = the 256 MiB default)")
		return 2
	}
	s, err := serve.New(serve.Config{
		Workers:       *workers,
		CacheEntries:  *entries,
		Quick:         *quick,
		MaxMeasureMs:  *maxMs,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		Self:          *self,
		Peers:         replicas,

		CheckpointPoolBytes: *ckptMax,
	})
	if err != nil {
		// An unwritable store dir or a malformed ring fails here, at
		// startup, with the reason — not on the first request.
		fmt.Fprintf(stderr, "dprofd: %v\n", err)
		return 1
	}
	// Bind before announcing, so the printed address is the bound one (an
	// ephemeral ":0" port resolves here) and a bind error fails at startup.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dprofd: %v\n", err)
		return 1
	}
	hs := newHTTPServer(s.Handler())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "dprofd: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "dprofd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop admitting simulations, then drain handlers.
	// Running simulations finish (the inner loop is not interruptible), so
	// give the drain a bounded grace period.
	fmt.Fprintln(stdout, "dprofd: shutting down")
	s.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "dprofd: shutdown: %v\n", err)
		return 1
	}
	return 0
}
