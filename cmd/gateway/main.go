// Command gateway fronts a gliderd fleet: consistent-hash job routing
// across N backends, health-aware membership, capped-backoff retries, and a
// gateway-level result cache (see internal/gateway and DESIGN.md §12).
//
// Quickstart (3-shard local fleet):
//
//	gliderd -addr :8081 -shard s0 &
//	gliderd -addr :8082 -shard s1 &
//	gliderd -addr :8083 -shard s2 &
//	gateway -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 &
//	curl -s -X POST localhost:8080/v1/sim \
//	  -d '{"workload":"omnetpp","policy":"glider","accesses":200000,"seed":42}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"glider/internal/gateway"
)

// Listener timeouts: a client that trickles its request headers, or parks an
// idle keep-alive connection, cannot hold a connection forever. The idle
// timeout outlasts net/http's default client idle timeout (90s), so clients
// on the default transport close first and never race a server-side close.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated gliderd base URLs (required)")
	replicas := flag.Int("replicas", gateway.DefaultReplicas, "virtual ring points per backend")
	poll := flag.Duration("poll", 500*time.Millisecond, "healthz poll interval")
	retries := flag.Int("retries", 3, "max attempts per job (first try included)")
	backoffBase := flag.Duration("backoff-base", 50*time.Millisecond, "first retry delay")
	backoffCap := flag.Duration("backoff-cap", 2*time.Second, "per-attempt retry delay ceiling")
	cacheEntries := flag.Int("cache", 1024, "gateway result cache entries")
	seed := flag.Int64("seed", 1, "retry jitter seed")
	flag.Parse()

	var bases []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "gateway: -backends is required (comma-separated gliderd base URLs)")
		os.Exit(2)
	}

	g := gateway.New(gateway.Config{
		Backends:     bases,
		Replicas:     *replicas,
		PollInterval: *poll,
		Retries:      *retries,
		BackoffBase:  *backoffBase,
		BackoffCap:   *backoffCap,
		BackoffSeed:  *seed,
		CacheEntries: *cacheEntries,
	})
	g.Poll(context.Background()) // establish initial membership before serving

	hs := &http.Server{Addr: *addr, Handler: g.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("gateway: listening on %s over %d backends (retries=%d)", *addr, len(bases), *retries)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("gateway: %s received, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("gateway: shutdown: %v", err)
		}
		g.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "gateway: %v\n", err)
			os.Exit(1)
		}
	}
}
