// Command damaris-gate is the stateless read gateway: it serves DSF data
// out of any storage backend URL over HTTP, so analysis and visualization
// clients read through a gateway instead of mounting the store.
//
// Usage:
//
//	damaris-gate -store obj:///data/objects -listen :8080
//
// A gateway keeps no state the store does not hold, so any number of
// independent gateways can serve one store root; each exposes its own
// /metrics. See docs/gateway.md for the API.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"damaris/internal/gateway"
	"damaris/internal/store"
)

// A client gets this long to send its request headers, and an idle
// keep-alive connection is closed after idleTimeout, so a client that
// trickles its headers or never sends a next request cannot hold a
// connection open forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		storeURL = flag.String("store", "", "storage backend URL to serve (required), e.g. obj:///data/objects")
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		partMB   = flag.Int64("part-cache-mb", gateway.DefaultPartCacheBytes>>20, "LRU part cache budget in MiB")
		fetchers = flag.Int("fetch-workers", gateway.DefaultFetchWorkers, "bound on concurrent backend part fetches")
		tocN     = flag.Int("toc-cache", gateway.DefaultTOCEntries, "bound on cached decoded manifests/TOCs")
		probe    = flag.String("ready-probe", "", "backend object /readyz must Stat successfully before reporting ready (empty = no backend probe)")
	)
	flag.Parse()
	if *storeURL == "" {
		fmt.Fprintln(os.Stderr, "usage: damaris-gate -store URL [-listen addr] [-part-cache-mb n] [-fetch-workers n] [-toc-cache n] [-ready-probe object]")
		os.Exit(2)
	}
	backend, err := store.Open(*storeURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "damaris-gate:", err)
		os.Exit(1)
	}
	defer backend.Close()

	// The telemetry plane folds into the gateway's own mux (no second
	// listener): /metrics, /trace, /epochs and /readyz ride on -listen next
	// to the data API. pprof does not — the gateway mux is client-facing,
	// and profiling stays on damaris-run's dedicated -metrics-addr listener.
	g, err := gateway.New(gateway.Config{
		Backend:        backend,
		PartCacheBytes: *partMB << 20,
		FetchWorkers:   *fetchers,
		TOCEntries:     *tocN,
		ReadyProbe:     *probe,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "damaris-gate:", err)
		os.Exit(1)
	}

	fmt.Printf("damaris-gate: serving %s on %s\n", *storeURL, *listen)
	srv := &http.Server{
		Addr:              *listen,
		Handler:           g.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "damaris-gate:", err)
		os.Exit(1)
	}
}
