package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glider/internal/server"
)

// chaosNode is one in-process gliderd backend wrapped in a deterministic
// fault-injection layer: forced 429s flip on and off per node, the whole
// node dies via Kill, and every executor invocation is
// counted per job hash so tests can prove a job ran exactly once across the
// fleet.
type chaosNode struct {
	name string
	srv  *server.Server
	ts   *httptest.Server

	force429 atomic.Bool

	mu    sync.Mutex
	execs map[string]int
}

func (n *chaosNode) bump(hash string) {
	n.mu.Lock()
	n.execs[hash]++
	n.mu.Unlock()
}

func (n *chaosNode) execCount(hash string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.execs[hash]
}

// Kill closes the node's listener and in-flight connections: every
// subsequent request fails at the transport level, the shape a crashed
// process produces.
func (n *chaosNode) Kill() {
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// chaosMiddleware injects faults in front of the real server handler. Only
// job endpoints are faulted; /healthz stays reachable so health polling and
// fault injection remain independent axes.
func (n *chaosNode) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			if n.force429.Load() {
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"injected saturation"}`)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// cluster is N chaos nodes behind one gateway.
type cluster struct {
	nodes []*chaosNode
	gw    *Gateway
	ts    *httptest.Server
}

// cannedCellExec answers instantly with a payload derived only from the
// spec, so any node produces byte-identical results — the fixture for
// routing and chaos tests that don't need real simulations.
func cannedCellExec(ctx context.Context, spec server.JobSpec) (json.RawMessage, error) {
	return json.Marshal(map[string]any{
		"workload": spec.Workload, "policy": spec.Policy,
		"accesses": spec.Accesses, "seed": spec.Seed, "kind": spec.Kind,
	})
}

// newCluster spins n fault-injectable backends and a gateway over them.
// exec nil selects the real experiments entry points. mod tweaks the
// gateway config before construction.
func newCluster(t *testing.T, n int, exec func(context.Context, server.JobSpec) (json.RawMessage, error), mod func(*Config)) *cluster {
	t.Helper()
	c := &cluster{}
	var bases []string
	for i := 0; i < n; i++ {
		nd := &chaosNode{name: fmt.Sprintf("b%d", i), execs: make(map[string]int)}
		wrapped := exec
		srv := server.New(server.Config{
			ShardID: fmt.Sprintf("s%d", i),
			Executor: func(ctx context.Context, spec server.JobSpec) (json.RawMessage, error) {
				nd.bump(spec.Hash())
				if wrapped != nil {
					return wrapped(ctx, spec)
				}
				return nil, fmt.Errorf("no executor")
			},
		})
		nd.srv = srv
		nd.ts = httptest.NewServer(nd.handler(srv.Handler()))
		c.nodes = append(c.nodes, nd)
		bases = append(bases, nd.ts.URL)
	}
	cfg := Config{
		Backends:    bases,
		Retries:     3,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		BackoffSeed: 1,
	}
	if mod != nil {
		mod(&cfg)
	}
	c.gw = New(cfg)
	c.ts = httptest.NewServer(c.gw.Handler())
	t.Cleanup(func() {
		c.ts.Close()
		c.gw.Close()
		for _, nd := range c.nodes {
			nd.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := nd.srv.Drain(ctx); err != nil {
				t.Errorf("drain %s at teardown: %v", nd.name, err)
			}
			cancel()
		}
	})
	return c
}

// ownerIndex returns which node currently owns hash on the gateway's ring.
func (c *cluster) ownerIndex(t *testing.T, hash string) int {
	t.Helper()
	name, ok := c.gw.ring.Owner(hash)
	if !ok {
		t.Fatal("ring is empty")
	}
	for i, nd := range c.nodes {
		if nd.name == name {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster node", name)
	return -1
}

// totalExecs sums executor invocations for hash across the fleet.
func (c *cluster) totalExecs(hash string) int {
	total := 0
	for _, nd := range c.nodes {
		total += nd.execCount(hash)
	}
	return total
}

func (c *cluster) counter(name string) uint64 {
	for _, cs := range c.gw.Registry().Snapshot().Counters {
		if cs.Name == name {
			return cs.Value
		}
	}
	return 0
}

func simSpec(seed int64) server.JobSpec {
	return server.JobSpec{Kind: server.KindSim, Workload: "omnetpp", Policy: "lru", Accesses: 1000, Seed: seed}
}

func simBody(seed int64) string {
	return fmt.Sprintf(`{"workload":"omnetpp","policy":"lru","accesses":1000,"seed":%d}`, seed)
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, data
}

func decodeEnvelope(t *testing.T, data []byte) server.Envelope {
	t.Helper()
	var env server.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding envelope %q: %v", data, err)
	}
	return env
}
