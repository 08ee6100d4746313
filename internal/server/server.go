// Package server implements gliderd's HTTP API: a batched, backpressured
// front end over the repository's simulation engine. Requests name a
// (workload, policy, accesses, seed) cell; the server canonicalizes each
// into a job hash, coalesces duplicates onto one execution, queues jobs
// into a bounded buffer (rejecting with 429 + Retry-After when full),
// drains the queue in batches onto a simrunner pool, and caches marshaled
// results in an LRU keyed by the job hash. Per-request deadlines propagate
// as context cancellation all the way into the simulation loops, and a
// graceful drain lets in-flight work finish while queued and new work is
// rejected with 503.
//
// Because results are produced by the same experiments entry points a
// direct run uses (experiments.RunCell / RunPredictCell / RunEstimateCell)
// and cached as
// marshaled bytes, a server response's result field is byte-identical to a
// direct run — the property the differential test suite pins.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"glider/internal/experiments"
	"glider/internal/ledger"
	"glider/internal/lru"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/simrunner"
	"glider/internal/workload"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-dispatched jobs;
	// beyond it requests are rejected with 429 (default 64).
	QueueDepth int
	// Workers bounds the simrunner pool a batch runs on (0 = one per CPU).
	Workers int
	// BatchMax caps how many queued jobs the dispatcher hands to the pool
	// at once (default 8).
	BatchMax int
	// CacheEntries bounds the result LRU (default 256).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the job does not set
	// timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// MaxBatchJobs caps the job count of one /v1/batch request (default 64).
	MaxBatchJobs int
	// Limits bounds what a single job may ask for.
	Limits Limits
	// ShardID names this instance inside a fleet. When set, every response
	// carries it in the ShardHeader header and the /healthz payload reports
	// it — the attribution the gateway's routing tests pin.
	ShardID string
	// Obs receives the server's metrics; nil allocates a fresh registry
	// (exposed on /metrics either way).
	Obs *obs.Registry
	// Ledger, when set, records every successfully served result as a
	// content-addressed artifact and exposes the chain head and inclusion
	// proofs on /v1/ledger/root and /v1/ledger/proof. Recording is
	// best-effort: a ledger failure never fails the job that produced the
	// result. nil disables the endpoints (they answer 404).
	Ledger *ledger.Ledger
	// Executor overrides job execution — the deterministic seam the
	// backpressure and drain tests use. nil selects the real experiments
	// entry points.
	Executor func(ctx context.Context, spec JobSpec) (json.RawMessage, error)
}

func (c Config) defaulted() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 64
	}
	c.Limits = c.Limits.defaulted()
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// Envelope is the response wrapper for one job: its canonical hash, whether
// the result came from the cache, and the result bytes exactly as the
// executor marshaled them. Batch rows carry error/status inline instead of
// a result.
type Envelope struct {
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
}

// Catalog lists what the server can simulate.
type Catalog struct {
	Workloads []string `json:"workloads"`
	// Schemes are the registered workload-spec schemes; jobs also accept
	// spec strings like "zipf(objects=4096,skew=0.9)" built from these.
	Schemes  []string `json:"schemes"`
	Policies []string `json:"policies"`
	// Predictors are the policies predict jobs accept.
	Predictors []string `json:"predictors"`
}

// apiError is an error with an HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// StatusCode returns the HTTP status carried by an error this package
// produced (validation rejections, queue-full, draining), or 0 for any other
// error. It lets layers above — the gateway validates specs before routing —
// map rejections to the same wire status a single node would answer with.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	return 0
}

// Sentinel rejections. errQueueFull maps to 429 + Retry-After, errDraining
// to 503 + Retry-After.
var (
	errQueueFull = &apiError{status: http.StatusTooManyRequests, msg: "job queue is full"}
	errDraining  = &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"}
)

// flight is one in-progress execution of a job hash. All requests for the
// same hash wait on the same flight; the first requester's context drives
// the execution.
type flight struct {
	spec     JobSpec
	hash     string
	ctx      context.Context
	enqueued time.Time
	done     chan struct{}
	result   json.RawMessage
	err      error
}

// Server is the gliderd service. Create with New, mount Handler, stop with
// Drain.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	queue chan *flight

	stopCh         chan struct{}
	dispatcherDone chan struct{}

	mu       sync.Mutex
	draining bool
	flights  map[string]*flight
	cache    *lru.Cache[string, json.RawMessage]

	queueDepth  *obs.Histogram
	waitTimer   *obs.Timer
	execTimer   *obs.Timer
	cacheHits   *obs.Counter
	coalesced   *obs.Counter
	rejectedFul *obs.Counter
	rejectedDrn *obs.Counter
}

// New builds a server and starts its dispatcher.
func New(cfg Config) *Server {
	cfg = cfg.defaulted()
	s := &Server{
		cfg:            cfg,
		reg:            cfg.Obs,
		queue:          make(chan *flight, cfg.QueueDepth),
		stopCh:         make(chan struct{}),
		dispatcherDone: make(chan struct{}),
		flights:        make(map[string]*flight),
		cache:          lru.New[string, json.RawMessage](cfg.CacheEntries),
	}
	s.queueDepth = s.reg.Histogram("server.queue.depth", obs.LinearBuckets(0, float64(max(cfg.QueueDepth/8, 1)), 9))
	s.waitTimer = s.reg.Timer("server.job.wait.seconds")
	s.execTimer = s.reg.Timer("server.job.exec.seconds")
	s.cacheHits = s.reg.Counter("server.cache.hits")
	s.coalesced = s.reg.Counter("server.jobs.coalesced")
	s.rejectedFul = s.reg.Counter("server.rejected.queue_full")
	s.rejectedDrn = s.reg.Counter("server.rejected.draining")
	go s.dispatcher()
	return s
}

// Registry exposes the server's metric registry (the /metrics source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain stops accepting work, rejects everything still queued with 503, and
// waits — bounded by ctx — for the running batch to finish. Safe to call
// more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.stopCh)
	}
	s.mu.Unlock()
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ------------------------------------------------------------- dispatcher

func (s *Server) dispatcher() {
	defer close(s.dispatcherDone)
	for {
		select {
		case <-s.stopCh:
			s.rejectQueued()
			return
		case f := <-s.queue:
			// A stop that raced the receive wins: once draining is
			// observable, nothing queued may start.
			select {
			case <-s.stopCh:
				s.finish(f, nil, errDraining)
				s.rejectQueued()
				return
			default:
			}
			s.runBatch(s.fillBatch(f))
		}
	}
}

// fillBatch opportunistically drains up to BatchMax-1 more queued flights so
// one pool invocation carries them all.
func (s *Server) fillBatch(first *flight) []*flight {
	batch := []*flight{first}
	for len(batch) < s.cfg.BatchMax {
		select {
		case f := <-s.queue:
			batch = append(batch, f)
		default:
			return batch
		}
	}
	return batch
}

// runBatch executes the flights on the simrunner pool. The batch context is
// Background — a drain lets running jobs finish — while each job observes
// its own flight's request-derived context, so per-request deadlines cancel
// mid-simulation without touching siblings.
func (s *Server) runBatch(batch []*flight) {
	now := time.Now()
	jobs := make([]simrunner.Job[json.RawMessage], len(batch))
	for i, f := range batch {
		s.waitTimer.Observe(now.Sub(f.enqueued))
		jobs[i] = simrunner.Job[json.RawMessage]{
			Key: f.hash,
			Run: func(ctx context.Context) (json.RawMessage, error) {
				if err := f.ctx.Err(); err != nil {
					return nil, err
				}
				start := time.Now()
				res, err := s.exec(f.ctx, f.spec)
				s.execTimer.Observe(time.Since(start))
				return res, err
			},
		}
	}
	results := simrunner.Run(context.Background(), simrunner.Options{Workers: s.cfg.Workers, Obs: s.reg}, jobs)
	for i, r := range results {
		s.finish(batch[i], r.Value, r.Err)
	}
}

// finish publishes a flight's outcome: successful results enter the LRU,
// the flight leaves the dedup table, and waiters wake via the closed
// channel (the writes happen-before the close).
func (s *Server) finish(f *flight, res json.RawMessage, err error) {
	s.mu.Lock()
	if err == nil {
		s.cache.Add(f.hash, res)
	}
	if s.flights[f.hash] == f {
		delete(s.flights, f.hash)
	}
	s.mu.Unlock()
	f.result, f.err = res, err
	close(f.done)
}

func (s *Server) rejectQueued() {
	for {
		select {
		case f := <-s.queue:
			s.rejectedDrn.Inc()
			s.finish(f, nil, errDraining)
		default:
			return
		}
	}
}

// ------------------------------------------------------------- resolution

func (s *Server) exec(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
	res, err := s.execInner(ctx, spec)
	if err == nil && s.cfg.Ledger != nil {
		// Record the served bytes. Best-effort by design — and because
		// artifacts are content-addressed, this dedupes against the record
		// the experiments entry point itself may have made: both canonicalize
		// to the same bytes, so the ledger holds one entry either way.
		if kind := ArtifactKind(spec.Kind); kind != "" {
			_, _ = s.cfg.Ledger.Append(kind, json.RawMessage(res))
		}
	}
	return res, err
}

func (s *Server) execInner(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
	if s.cfg.Executor != nil {
		return s.cfg.Executor(ctx, spec)
	}
	switch spec.Kind {
	case KindSim:
		res, err := experiments.RunCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindPredict:
		res, err := experiments.RunPredictCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed, spec.TopPCs, spec.ISVMRows)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindEstimate:
		res, err := experiments.RunEstimateCell(ctx, spec.Workload, spec.Policy, spec.Accesses, spec.Seed)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	default:
		return nil, &apiError{status: 422, msg: fmt.Sprintf("unknown job kind %q", spec.Kind)}
	}
}

// ArtifactKind maps a job kind to the ledger artifact kind its result is
// recorded under ("" for kinds the ledger does not record). Clients derive a
// served result's artifact ID with ledger.ArtifactIDFor(ArtifactKind(kind),
// envelope.Result).
func ArtifactKind(jobKind string) string {
	switch jobKind {
	case KindSim:
		return experiments.LedgerKindCell
	case KindPredict:
		return experiments.LedgerKindPredict
	case KindEstimate:
		return experiments.LedgerKindEstimate
	}
	return ""
}

// resolve returns the job's result bytes, serving from the cache, joining
// an identical in-flight execution, or becoming the owner of a new flight.
// When a joined flight dies because its owner's deadline fired, live
// waiters retry — one of them becomes the new owner — so one impatient
// client cannot fail its neighbours.
func (s *Server) resolve(ctx context.Context, spec JobSpec) (json.RawMessage, bool, error) {
	hash := spec.Hash()
	for {
		s.mu.Lock()
		if res, ok := s.cache.Get(hash); ok {
			s.mu.Unlock()
			s.cacheHits.Inc()
			return res, true, nil
		}
		if f, ok := s.flights[hash]; ok {
			s.mu.Unlock()
			s.coalesced.Inc()
			select {
			case <-f.done:
				if f.err != nil && f.ctx.Err() != nil && ctx.Err() == nil {
					continue // owner bailed; retake the job
				}
				return f.result, false, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if s.draining {
			s.mu.Unlock()
			s.rejectedDrn.Inc()
			return nil, false, errDraining
		}
		f := &flight{spec: spec, hash: hash, ctx: ctx, enqueued: time.Now(), done: make(chan struct{})}
		select {
		case s.queue <- f:
			s.flights[hash] = f
			depth := len(s.queue)
			s.mu.Unlock()
			s.queueDepth.Observe(float64(depth))
		default:
			s.mu.Unlock()
			s.rejectedFul.Inc()
			return nil, false, errQueueFull
		}
		select {
		case <-f.done:
			return f.result, false, f.err
		case <-ctx.Done():
			// Our own deadline: the flight's ctx (ours) is cancelled, the
			// dispatcher will observe it and finish the flight; waiters
			// retry under their own contexts.
			return nil, false, ctx.Err()
		}
	}
}

// ----------------------------------------------------------------- HTTP

// ShardHeader is the response header naming the instance that served a
// request (set only when Config.ShardID is non-empty).
const ShardHeader = "X-Gliderd-Shard"

// EstimateHeader is the response header on /v1/estimate answers naming the
// result's provenance — "surrogate" or "exact-fallback" — mirroring the
// result's "source" field so clients and proxies can attribute an answer
// without parsing the body.
const EstimateHeader = "X-Gliderd-Estimate"

// StampEstimate sets EstimateHeader on w from the "source" field of a
// marshaled result of the given job kind; non-estimate kinds and results
// without a source leave w untouched. The gateway calls it too, so answers
// from its own cache carry the same attribution a node's would.
func StampEstimate(w http.ResponseWriter, kind string, res json.RawMessage) {
	if kind != KindEstimate {
		return
	}
	var v struct {
		Source string `json:"source"`
	}
	if json.Unmarshal(res, &v) == nil && v.Source != "" {
		w.Header().Set(EstimateHeader, v.Source)
	}
}

// Health is the /healthz payload: the coarse state string ("ok" or
// "draining"), the shard identity, and queue occupancy, so a gateway can
// both gate membership on Status and see saturation building before it
// turns into 429s.
type Health struct {
	Status        string `json:"status"`
	Shard         string `json:"shard,omitempty"`
	Draining      bool   `json:"draining"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

// Handler mounts the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/ledger/root", s.handleLedgerRoot)
	mux.HandleFunc("GET /v1/ledger/proof", s.handleLedgerProof)
	mux.HandleFunc("POST /v1/sim", s.handleJob(KindSim))
	mux.HandleFunc("POST /v1/predict", s.handleJob(KindPredict))
	mux.HandleFunc("POST /v1/estimate", s.handleJob(KindEstimate))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	if s.cfg.ShardID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ShardHeader, s.cfg.ShardID)
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.healthz").Inc()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	WriteJSON(w, status, Health{
		Status:        state,
		Shard:         s.cfg.ShardID,
		Draining:      draining,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.metrics").Inc()
	WriteJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.catalog").Inc()
	cat := Catalog{Workloads: workload.Names(), Schemes: workload.Schemes()}
	for name := range policy.Registry {
		cat.Policies = append(cat.Policies, name)
		if predictorCapable(name) {
			cat.Predictors = append(cat.Predictors, name)
		}
	}
	sort.Strings(cat.Policies)
	sort.Strings(cat.Predictors)
	WriteJSON(w, http.StatusOK, cat)
}

// handleLedgerRoot publishes the ledger chain head: batch/artifact counts
// and the chain root an auditor compares against its own replay.
func (s *Server) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.ledger_root").Inc()
	if s.cfg.Ledger == nil {
		s.writeError(w, "ledger_root", &apiError{status: http.StatusNotFound, msg: "no ledger configured"})
		return
	}
	WriteJSON(w, http.StatusOK, s.cfg.Ledger.Root())
}

// handleLedgerProof answers ?artifact=<hex id> with a self-contained
// inclusion proof (anchoring the artifact first if it is still pending).
// Unknown artifacts answer 404 so a gateway can fan a proof request across
// a fleet and take the first hit.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.ledger_proof").Inc()
	if s.cfg.Ledger == nil {
		s.writeError(w, "ledger_proof", &apiError{status: http.StatusNotFound, msg: "no ledger configured"})
		return
	}
	id, err := ledger.ParseID(r.URL.Query().Get("artifact"))
	if err != nil {
		s.writeError(w, "ledger_proof", &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf("artifact: %v", err)})
		return
	}
	p, err := s.cfg.Ledger.Prove(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ledger.ErrUnknownArtifact) {
			status = http.StatusNotFound
		}
		s.writeError(w, "ledger_proof", &apiError{status: status, msg: err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, p)
}

// DecodeJob reads the body of a POST /v1/<kind> request: a bounded, strict
// JSON decode (400 on failure), the kind defaulted from the endpoint (422
// when the body names another), then Validate. The error's status is
// readable through StatusCode. The gateway fronts with the same call, so a
// fleet rejects a bad request exactly as a single node does.
func DecodeJob(w http.ResponseWriter, r *http.Request, kind string, lim Limits) (JobSpec, error) {
	var spec JobSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		return spec, &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if spec.Kind == "" {
		spec.Kind = kind
	}
	if spec.Kind != kind {
		return spec, &apiError{status: 422, msg: fmt.Sprintf("kind %q does not match endpoint /v1/%s", spec.Kind, kind)}
	}
	return spec, spec.Validate(lim)
}

func (s *Server) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("server.http." + kind).Inc()
		spec, err := DecodeJob(w, r, kind, s.cfg.Limits)
		if err != nil {
			s.writeError(w, kind, err)
			return
		}
		ctx, cancel := s.requestCtxFrom(r.Context(), spec)
		defer cancel()
		res, cached, err := s.resolve(ctx, spec)
		if err != nil {
			s.writeError(w, kind, err)
			return
		}
		StampEstimate(w, kind, res)
		WriteJSON(w, http.StatusOK, Envelope{Hash: spec.Hash(), Cached: cached, Result: res})
	}
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// handleBatch runs every job concurrently through the same
// cache/coalesce/queue path the single endpoints use and streams one NDJSON
// envelope per job, in request order, flushing as each becomes available.
// Per-job failures (including 429s once the queue fills) ride inline as
// error envelopes; the stream itself is always 200.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.http.batch").Inc()
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, "batch", &apiError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, "batch", &apiError{status: 422, msg: "batch has no jobs"})
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.writeError(w, "batch", &apiError{status: 422, msg: fmt.Sprintf("batch of %d jobs exceeds limit %d", len(req.Jobs), s.cfg.MaxBatchJobs)})
		return
	}
	for i := range req.Jobs {
		if req.Jobs[i].Kind == "" {
			req.Jobs[i].Kind = KindSim
		}
		if err := req.Jobs[i].Validate(s.cfg.Limits); err != nil {
			s.writeError(w, "batch", &apiError{status: 422, msg: fmt.Sprintf("job %d: %v", i, err)})
			return
		}
	}

	out := make([]chan Envelope, len(req.Jobs))
	for i, spec := range req.Jobs {
		ch := make(chan Envelope, 1)
		out[i] = ch
		go func() {
			ctx, cancel := s.requestCtxFrom(r.Context(), spec)
			defer cancel()
			env := Envelope{Hash: spec.Hash()}
			res, cached, err := s.resolve(ctx, spec)
			if err != nil {
				env.Error = err.Error()
				env.Status = statusFor(err)
			} else {
				env.Cached = cached
				env.Result = res
			}
			ch <- env
		}()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, ch := range out {
		env := <-ch
		if err := enc.Encode(env); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// requestCtxFrom derives the request's deadline context from the job's
// timeout_ms (capped by Limits.MaxTimeout) or the server default.
func (s *Server) requestCtxFrom(parent context.Context, spec JobSpec) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		d = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if d > s.cfg.Limits.MaxTimeout {
		d = s.cfg.Limits.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

// statusFor maps an error to its HTTP status.
func statusFor(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The requester is gone; the status is written to a closed pipe,
		// but pick something truthful for the batch inline case.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, err error) {
	s.reg.Counter("server.http." + endpoint + ".errors").Inc()
	status := statusFor(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, map[string]any{"error": err.Error()})
}

// decodeJSON decodes a bounded, strict JSON body.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
