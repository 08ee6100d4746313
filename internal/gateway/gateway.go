package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"glider/internal/client"
	"glider/internal/lru"
	"glider/internal/obs"
	"glider/internal/server"
)

// Config sizes the gateway. Zero values select the documented defaults.
type Config struct {
	// Backends are the gliderd base URLs the gateway shards over.
	Backends []string
	// Replicas is the ring's virtual-point count per node (default 64).
	Replicas int
	// PollInterval is the /healthz poll period; <= 0 disables the background
	// poller (membership then moves via Poll calls and passive markdown on
	// transport errors — the deterministic mode the tests use).
	PollInterval time.Duration
	// PollTimeout bounds one health probe (default 2s).
	PollTimeout time.Duration
	// Retries caps the attempts per job, first try included (default 3).
	// Attempts walk the key's ring successor order, so a retry is also a
	// failover to the next-preferred shard.
	Retries int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff
	// (defaults client.DefaultBackoffBase / client.DefaultBackoffCap).
	BackoffBase, BackoffCap time.Duration
	// BackoffSeed fixes the jitter sequence for deterministic tests.
	BackoffSeed int64
	// CacheEntries bounds the gateway-level result LRU (default 1024) — the
	// upper tier over the per-node caches.
	CacheEntries int
	// Limits bounds what one request may ask for (same semantics as the
	// backend's; requests are validated before routing).
	Limits server.Limits
	// HTTPClient overrides the transport used for every backend.
	HTTPClient *http.Client
	// Obs receives the gateway's metrics; nil allocates a fresh registry.
	Obs *obs.Registry
}

func (c Config) defaulted() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.PollTimeout <= 0 {
		c.PollTimeout = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// node is one backend: its stable ring name ("b<i>"), base URL, and client.
type node struct {
	name string
	base string
	c    *client.Client
}

// NodeStatus is one backend's state in the gateway's /healthz payload.
type NodeStatus struct {
	Name    string        `json:"name"`
	Base    string        `json:"base"`
	Healthy bool          `json:"healthy"`
	Detail  server.Health `json:"detail"`
}

// GatewayHealth is the gateway's /healthz payload.
type GatewayHealth struct {
	Status  string       `json:"status"` // "ok" while >= 1 backend is live
	Healthy int          `json:"healthy"`
	Total   int          `json:"total"`
	Nodes   []NodeStatus `json:"nodes"`
}

// Gateway fronts a gliderd fleet. Create with New, mount Handler, stop with
// Close.
type Gateway struct {
	cfg     Config
	reg     *obs.Registry
	nodes   []*node
	byName  map[string]*node
	ring    *Ring
	backoff *client.Backoff

	mu     sync.Mutex
	live   map[string]bool
	detail map[string]server.Health

	stopOnce sync.Once
	stopCh   chan struct{}
	pollDone chan struct{}

	cmu   sync.Mutex
	cache *lru.Cache[string, json.RawMessage]

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	nodeCacheHt *obs.Counter
	retries     *obs.Counter
	failovers   *obs.Counter
	completed   *obs.Counter
	saturated   *obs.Counter
	noBackends  *obs.Counter
	latency     *obs.Timer
}

// New builds a gateway over cfg.Backends. Every backend starts as a ring
// member (optimistic: a dead node is marked down by its first failed probe
// or failed request); when PollInterval > 0 a background poller keeps
// membership current.
func New(cfg Config) *Gateway {
	cfg = cfg.defaulted()
	g := &Gateway{
		cfg:      cfg,
		reg:      cfg.Obs,
		byName:   make(map[string]*node, len(cfg.Backends)),
		ring:     NewRing(cfg.Replicas),
		backoff:  client.NewBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.BackoffSeed),
		live:     make(map[string]bool, len(cfg.Backends)),
		detail:   make(map[string]server.Health, len(cfg.Backends)),
		stopCh:   make(chan struct{}),
		pollDone: make(chan struct{}),
		cache:    lru.New[string, json.RawMessage](cfg.CacheEntries),
	}
	for i, base := range cfg.Backends {
		n := &node{name: "b" + strconv.Itoa(i), base: base, c: client.New(base, cfg.HTTPClient)}
		g.nodes = append(g.nodes, n)
		g.byName[n.name] = n
		g.ring.Add(n.name)
		g.live[n.name] = true
	}
	g.cacheHits = g.reg.Counter("gateway.cache.hits")
	g.cacheMisses = g.reg.Counter("gateway.cache.misses")
	g.nodeCacheHt = g.reg.Counter("gateway.node_cache.hits")
	g.retries = g.reg.Counter("gateway.retries")
	g.failovers = g.reg.Counter("gateway.failovers")
	g.completed = g.reg.Counter("gateway.jobs.completed")
	g.saturated = g.reg.Counter("gateway.rejected.saturated")
	g.noBackends = g.reg.Counter("gateway.rejected.no_backends")
	g.latency = g.reg.Timer("gateway.request.seconds")
	if cfg.PollInterval > 0 {
		go g.pollLoop()
	} else {
		close(g.pollDone)
	}
	return g
}

// Registry exposes the gateway's metric registry (the /metrics source).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Close stops the background poller. In-flight requests are unaffected.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	<-g.pollDone
}

// --------------------------------------------------------------- membership

func (g *Gateway) pollLoop() {
	defer close(g.pollDone)
	ticker := time.NewTicker(g.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
			g.Poll(context.Background())
		}
	}
}

// Poll probes every backend's /healthz once and updates ring membership: a
// node is live iff the probe succeeds with status "ok". A draining node
// reports "draining" (and 503), so it leaves the ring — new keys route
// around it while its in-flight work, which the gateway never cancels on a
// membership change, still completes.
func (g *Gateway) Poll(ctx context.Context) {
	for _, n := range g.nodes {
		pctx, cancel := context.WithTimeout(ctx, g.cfg.PollTimeout)
		h, err := n.c.HealthDetail(pctx)
		cancel()
		g.setHealth(n, err == nil && h.Status == "ok", h)
	}
}

func (g *Gateway) setHealth(n *node, ok bool, h server.Health) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.detail[n.name] = h
	if ok == g.live[n.name] {
		return
	}
	g.live[n.name] = ok
	if ok {
		g.ring.Add(n.name)
		g.reg.Counter("gateway.node.up").Inc()
	} else {
		g.ring.Remove(n.name)
		g.reg.Counter("gateway.node.down").Inc()
	}
}

// markDown is the passive path: a transport-level failure on a live node
// removes it immediately rather than waiting for the next poll.
func (g *Gateway) markDown(n *node) {
	g.setHealth(n, false, server.Health{})
}

// candidates returns the key's preference-ordered live nodes: ring owner
// first, then its successors.
func (g *Gateway) candidates(hash string) []*node {
	names := g.ring.Successors(hash, len(g.nodes))
	out := make([]*node, 0, len(names))
	for _, name := range names {
		out = append(out, g.byName[name])
	}
	return out
}

// ----------------------------------------------------------------- routing

// errNoBackends means the ring is empty — every backend is down or draining.
var errNoBackends = errors.New("no healthy backends")

// dispatch forwards spec to its owning shard, walking the successor order on
// temporary failures with capped jittered backoff. Exactly one envelope is
// returned per call no matter how many attempts were made.
func (g *Gateway) dispatch(ctx context.Context, spec server.JobSpec, hash string) (server.Envelope, error) {
	cands := g.candidates(hash)
	if len(cands) == 0 {
		g.noBackends.Inc()
		return server.Envelope{}, errNoBackends
	}
	var env server.Envelope
	attempt := 0
	err := client.Retry(ctx, g.backoff, g.cfg.Retries, func(ctx context.Context) error {
		i := attempt
		attempt++
		if i > 0 {
			g.retries.Inc()
			if len(cands) > 1 {
				g.failovers.Inc()
			}
		}
		n := cands[i%len(cands)]
		e, err := n.c.Do(ctx, spec)
		if err != nil {
			if client.IsTemporary(err) && !isAPIError(err) {
				g.markDown(n) // transport failure: node is gone
			}
			return err
		}
		env = e
		g.reg.Counter("gateway.node." + n.name + ".served").Inc()
		return nil
	})
	return env, err
}

func isAPIError(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae)
}

// ----------------------------------------------------------------- HTTP

// CacheHeader reports which tier served a job: "gateway", "node", or "miss".
const CacheHeader = "X-Gliderd-Cache"

// Handler mounts the gateway API: the same /v1/sim, /v1/predict, and
// /v1/estimate contract as a single gliderd node (so internal/client works
// unchanged against a fleet), plus the gateway's own /healthz, /metrics, and
// proxied catalog.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/catalog", g.handleCatalog)
	mux.HandleFunc("GET /v1/ledger/root", g.handleLedgerRoot)
	mux.HandleFunc("GET /v1/ledger/proof", g.handleLedgerProof)
	mux.HandleFunc("POST /v1/sim", g.handleJob(server.KindSim))
	mux.HandleFunc("POST /v1/predict", g.handleJob(server.KindPredict))
	mux.HandleFunc("POST /v1/estimate", g.handleJob(server.KindEstimate))
	return mux
}

func (g *Gateway) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.reg.Counter("gateway.http." + kind).Inc()
		start := time.Now()
		spec, err := server.DecodeJob(w, r, kind, g.cfg.Limits)
		if err != nil {
			g.writeError(w, kind, err)
			return
		}
		hash := spec.Hash()
		g.cmu.Lock()
		res, ok := g.cache.Get(hash)
		g.cmu.Unlock()
		if ok {
			g.cacheHits.Inc()
			w.Header().Set(CacheHeader, "gateway")
			server.StampEstimate(w, kind, res)
			server.WriteJSON(w, http.StatusOK, server.Envelope{Hash: hash, Cached: true, Result: res})
			return
		}
		g.cacheMisses.Inc()
		env, err := g.dispatch(r.Context(), spec, hash)
		if err != nil {
			g.writeError(w, kind, err)
			return
		}
		g.cmu.Lock()
		g.cache.Add(hash, env.Result)
		g.cmu.Unlock()
		g.completed.Inc()
		g.latency.Observe(time.Since(start))
		tier := "miss"
		if env.Cached {
			g.nodeCacheHt.Inc()
			tier = "node"
		}
		w.Header().Set(CacheHeader, tier)
		server.StampEstimate(w, kind, env.Result)
		server.WriteJSON(w, http.StatusOK, server.Envelope{Hash: hash, Cached: env.Cached, Result: env.Result})
	}
}

// Health reports the gateway's view of the fleet.
func (g *Gateway) Health() GatewayHealth {
	g.mu.Lock()
	defer g.mu.Unlock()
	gh := GatewayHealth{Total: len(g.nodes)}
	for _, n := range g.nodes {
		ns := NodeStatus{Name: n.name, Base: n.base, Healthy: g.live[n.name], Detail: g.detail[n.name]}
		if ns.Healthy {
			gh.Healthy++
		}
		gh.Nodes = append(gh.Nodes, ns)
	}
	gh.Status = "ok"
	if gh.Healthy == 0 {
		gh.Status = "unavailable"
	}
	return gh
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.healthz").Inc()
	gh := g.Health()
	status := http.StatusOK
	if gh.Healthy == 0 {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	server.WriteJSON(w, status, gh)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.metrics").Inc()
	server.WriteJSON(w, http.StatusOK, g.reg.Snapshot())
}

// handleCatalog proxies the catalog from the first live backend: the fleet
// shares one registry build, so any node's answer is authoritative.
func (g *Gateway) handleCatalog(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.catalog").Inc()
	for _, name := range g.ring.Nodes() {
		cat, err := g.byName[name].c.Catalog(r.Context())
		if err == nil {
			server.WriteJSON(w, http.StatusOK, cat)
			return
		}
	}
	g.writeError(w, "catalog", errNoBackends)
}

// handleLedgerRoot proxies the ledger chain head from the first live backend
// that has one configured (nodes without a ledger answer 404 and are
// skipped), so `audit root` against the gateway works like against a node.
func (g *Gateway) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.ledger_root").Inc()
	var lastErr error = errNoBackends
	for _, name := range g.ring.Nodes() {
		st, err := g.byName[name].c.LedgerRoot(r.Context())
		if err == nil {
			server.WriteJSON(w, http.StatusOK, st)
			return
		}
		lastErr = err
	}
	g.writeError(w, "ledger_root", lastErr)
}

// handleLedgerProof fans a proof request across the fleet in ring order and
// answers with the first backend that holds the artifact. Jobs shard across
// nodes, so no single backend's ledger holds every result; the fan-out makes
// the fleet one queryable result store. All-miss surfaces the last backend's
// 404.
func (g *Gateway) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	g.reg.Counter("gateway.http.ledger_proof").Inc()
	artifact := r.URL.Query().Get("artifact")
	var lastErr error = errNoBackends
	for _, name := range g.ring.Nodes() {
		p, err := g.byName[name].c.LedgerProof(r.Context(), artifact)
		if err == nil {
			server.WriteJSON(w, http.StatusOK, p)
			return
		}
		lastErr = err
	}
	g.writeError(w, "ledger_proof", lastErr)
}

// ------------------------------------------------------------ error plumbing

// writeError maps a failure to a response. Backend rejections keep their
// status and Retry-After semantics — a fleet-wide 429 surfaces to the caller
// as a 429 with a Retry-After hint, transport-level failures become 502, an
// empty ring answers 503, and an expired request 504.
func (g *Gateway) writeError(w http.ResponseWriter, endpoint string, err error) {
	g.reg.Counter("gateway.http." + endpoint + ".errors").Inc()
	status := http.StatusBadGateway
	retryAfter := ""
	var ae *client.APIError
	switch {
	case server.StatusCode(err) != 0:
		// Rejections from server.DecodeJob keep the backend's status so
		// the gateway answers exactly like a single node would.
		status = server.StatusCode(err)
	case errors.As(err, &ae):
		status = ae.StatusCode
		if ae.Temporary() {
			secs := int(ae.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			retryAfter = strconv.Itoa(secs)
			if status == http.StatusTooManyRequests {
				g.saturated.Inc()
			}
		}
	case errors.Is(err, errNoBackends):
		status = http.StatusServiceUnavailable
		retryAfter = "1"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	server.WriteJSON(w, status, map[string]any{"error": err.Error()})
}
