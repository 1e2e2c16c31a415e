// Command senn-serverd serves SENN spatial queries over the network: HTTP
// for stats and health, an upgraded query channel of length-prefixed
// internal/wire messages for position updates and kNN/range queries, one
// session per connection, both on one listener whose connections the daemon
// reads itself (it links no net/http). The POI data set comes from an
// on-disk store (see internal/serve: a header, then the POI points in row
// order, a POI's ID being its row), which the daemon packs at boot into the
// same R*-tree the in-process simulator builds — served answers are
// bit-identical to ServerModule's, page counts included.
//
// Usage:
//
//	senn-serverd -store pois.senp [-addr 127.0.0.1:8046] [-relay-timeout 2s]
//
// Generate a store first (clustered POIs, the paper's workload shape):
//
//	senn-serverd -mkstore pois.senp -pois 50000 -clusters 16 -width 20000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8046", "listen address")
		store        = flag.String("store", "", "POI store file to serve (required unless -mkstore)")
		relayTimeout = flag.Duration("relay-timeout", 0, "peer relay wait bound (0 = default 2s)")

		mkstore  = flag.String("mkstore", "", "write a fresh POI store to this path and exit")
		nPOIs    = flag.Int("pois", 50000, "mkstore: number of POIs")
		fanout   = flag.Int("fanout", sim.Fanout, "mkstore: fan-out the serving daemon packs its R*-tree with")
		width    = flag.Float64("width", 20000, "mkstore: square area side (m)")
		clusters = flag.Int("clusters", 0, "mkstore: POI clusters (0 = uniform)")
		seed     = flag.Int64("seed", 1, "mkstore: random seed")
	)
	flag.Parse()

	if *mkstore != "" {
		if err := makeStore(*mkstore, *nPOIs, *fanout, *width, *clusters, *seed); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d POIs, fanout %d, %gx%g m\n", *mkstore, *nPOIs, *fanout, *width, *width)
		return
	}
	if *store == "" {
		fatal(errors.New("missing -store (or -mkstore to create one)"))
	}

	// Grow the descriptor table to its limit now, so admitting sessions 64,
	// 128, 256, … never waits for the kernel to double it (DESIGN §16,
	// "Connections"). Not joined: the one wait it takes overlaps the store
	// read and the index build, and boot's few descriptors fit the table
	// it starts with, so nothing on the way to /healthz waits for it.
	go func() {
		t0 := time.Now()
		slots, err := serve.ReserveDescriptors()
		if err != nil {
			fmt.Fprintln(os.Stderr, "senn-serverd: descriptor table left to grow on demand:", err)
			return
		}
		fmt.Printf("senn-serverd: reserved %d descriptor slots in %v\n", slots, time.Since(t0).Round(100*time.Microsecond))
	}()

	// The two halves of a cold start are timed apart and reported on
	// /v1/stats: the index build is what a restart costs.
	t0 := time.Now()
	info, pois, err := serve.ReadStore(*store)
	if err != nil {
		fatal(err)
	}
	storeRead := time.Since(t0)
	t0 = time.Now()
	mod := sim.NewServerModule(pois, info.Fanout)
	indexBuild := time.Since(t0)
	indexBytes, tableBytes := mod.Bytes()
	perPOI := 1 / float64(max(info.Count, 1))
	fmt.Printf("senn-serverd: read %v, indexed %d POIs (fanout %d) in %v: height %d, %d nodes, index %.1f + table %.1f B/POI\n",
		storeRead.Round(time.Millisecond), info.Count, info.Fanout, indexBuild.Round(time.Millisecond),
		mod.Tree().Height(), mod.Tree().Nodes(), float64(indexBytes)*perPOI, float64(tableBytes)*perPOI)

	srv := serve.NewServer(mod, serve.Options{
		Bounds:       info.Bounds,
		RelayTimeout: *relayTimeout,
		StoreRead:    storeRead,
		IndexBuild:   indexBuild,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln, headTimeout) }()
	fmt.Printf("senn-serverd: listening on %s\n", *addr)

	select {
	case err := <-done:
		fatal(err)
	case <-ctx.Done():
		fmt.Println("senn-serverd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// No new connection arrives once the listener is closed; Close
		// closes every connection, session or HTTP, and waits for them all.
		// The accept loop's error on a listener closed for shutdown is the
		// expected one.
		_ = ln.Close()
		if err := srv.Close(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "senn-serverd: connections still open at exit:", err)
		}
	}
}

// headTimeout is the handshake deadline: how long a client may take to
// deliver a request head, and how long a keep-alive connection may idle
// before its next one. Without it a client that opens a socket and never
// finishes its request line holds a goroutine and a descriptor forever; it
// does not cover an admitted session, which may idle as long as it likes.
const headTimeout = 5 * time.Second

func makeStore(path string, n, fanout int, width float64, clusters int, seed int64) error {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(width, width)}
	rng := rand.New(rand.NewSource(seed))
	if clusters > 0 {
		return serve.WriteStore(path, sim.ClusteredPOIs(n, bounds, clusters, 400, rng), fanout, bounds) // 400 m spread
	}
	return serve.WriteStore(path, sim.RandomPOIs(n, bounds, rng), fanout, bounds)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "senn-serverd:", err)
	os.Exit(1)
}
