package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/estimate"
	"glider/internal/experiments"
	"glider/internal/gateway"
	"glider/internal/ledger"
	"glider/internal/obs"
	"glider/internal/server"
	"glider/internal/trace"
	"glider/internal/workload"
)

// Serve sizes: an open loop at one fixed rate through an in-process gateway
// to one gliderd node per CPU, each with one simulation worker and a disk
// ledger flushed on gliderd's default interval.
const (
	serveRate     = 12.0 // requests per second, Poisson arrivals
	serveHot      = 8    // cells in the hot set
	serveHotShare = 0.6  // share of requests drawn from the hot set
	serveAccesses = 12_000
	serveSetups   = 3
	serveLimit    = 0.5 // seconds; a slower or failed request misses goodput
	serveFlush    = 5 * time.Second
	serveSampled  = 6 // fresh responses re-run directly
)

// Serve cells use the estimator's training workloads so /v1/estimate can
// answer from the surrogate. serveMix is the cycle of (kind, policy) pairs
// the cells are drawn from: 60% sim, 20% predict, 20% estimate.
var (
	serveWorkloads = []string{"omnetpp", "mcf", "soplex", "astar", "sphinx3", "milc"}
	serveMix       = []struct{ kind, policy string }{
		{server.KindSim, "lru"}, {server.KindSim, "srrip"}, {server.KindSim, "ship++"},
		{server.KindSim, "hawkeye"}, {server.KindSim, "glider"}, {server.KindSim, "drrip"},
		{server.KindPredict, "glider"}, {server.KindPredict, "hawkeye"},
		{server.KindEstimate, "hawkeye"}, {server.KindEstimate, "ship++"},
	}
)

// request is one scheduled request of the open loop.
type request struct {
	spec server.JobSpec
	hot  int           // index into the hot set, -1 for a fresh cell
	at   time.Duration // scheduled send, from the start of the loop
}

// reply is what came back for one request.
type reply struct {
	err      error
	status   int
	tier     string // X-Gliderd-Cache: gateway, node or miss
	source   string // X-Gliderd-Estimate on estimate replies
	result   json.RawMessage
	late     time.Duration // how late the generator sent it
	latency  time.Duration // from the scheduled send to the full reply
	service  time.Duration // from the actual send to the full reply
	finished time.Time
}

// schedule draws the hot set and the open-loop schedule from the seed. The
// arrivals are a Poisson process at serveRate conditioned on its expected
// count — that many sorted uniform times — and the hot share and the
// (kind, policy, workload) mix of fresh cells are exact, so every seed
// offers the same load and only the order and the trace seeds change.
func schedule(seed int64, seconds float64, accesses int) (hot []server.JobSpec, reqs []request) {
	rng := rand.New(rand.NewSource(seed))
	cell := func(i int, cellSeed int64) server.JobSpec {
		m := serveMix[i%len(serveMix)]
		return server.JobSpec{Kind: m.kind, Workload: serveWorkloads[i%len(serveWorkloads)], Policy: m.policy, Accesses: accesses, Seed: cellSeed}
	}
	for _, i := range rng.Perm(len(serveMix))[:serveHot] {
		hot = append(hot, cell(i, seed*1000+int64(len(hot))))
	}
	n := int(math.Round(serveRate * seconds))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	nHot := int(math.Round(serveHotShare * float64(n)))
	slots := rng.Perm(n)
	fresh := rng.Perm(n - nHot)
	for i := range at {
		reqs = append(reqs, request{hot: -1, at: time.Duration(at[i] * float64(time.Second))})
	}
	for k, i := range slots {
		if k < nHot {
			reqs[i].hot = rng.Intn(len(hot))
			reqs[i].spec = hot[reqs[i].hot]
		} else {
			j := fresh[k-nHot]
			reqs[i].spec = cell(j, seed*1000+serveHot+int64(j))
		}
	}
	return hot, reqs
}

// timedBackend wraps a ledger backend and times every artifact append.
type timedBackend struct {
	ledger.Backend
	mu      sync.Mutex
	appends []time.Duration
}

func (b *timedBackend) Append(rec ledger.Record) error {
	start := time.Now()
	err := b.Backend.Append(rec)
	if rec.Type == ledger.RecordArtifact {
		b.mu.Lock()
		b.appends = append(b.appends, time.Since(start))
		b.mu.Unlock()
	}
	return err
}

func (b *timedBackend) durations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.appends...)
}

// fleet is an in-process gliderd fleet behind a gateway, all on loopback.
type fleet struct {
	nodes    []*server.Server
	regs     []*obs.Registry
	ledgers  []*ledger.Ledger
	paths    []string
	backends []*timedBackend
	gw       *gateway.Gateway
	gwClient *http.Client
	https    []*http.Server
	served   []chan error
	url      string
}

// listen serves h on a loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	f.https = append(f.https, hs)
	f.served = append(f.served, done)
	return "http://" + ln.Addr().String(), nil
}

func startFleet(dir string, nodes int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < nodes; i++ {
		path := filepath.Join(dir, fmt.Sprintf("node%d.ledger", i))
		disk, err := ledger.OpenDisk(path)
		if err != nil {
			f.close()
			return nil, err
		}
		tb := &timedBackend{Backend: disk}
		reg := obs.NewRegistry()
		led, err := ledger.New(tb, ledger.Options{FlushEvery: serveFlush, Obs: reg})
		if err != nil {
			disk.Close()
			f.close()
			return nil, err
		}
		srv := server.New(server.Config{Workers: 1, ShardID: fmt.Sprintf("node%d", i), Obs: reg, Ledger: led})
		f.nodes, f.regs, f.ledgers, f.paths, f.backends = append(f.nodes, srv), append(f.regs, reg), append(f.ledgers, led), append(f.paths, path), append(f.backends, tb)
		url, err := f.listen(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	f.gwClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	f.gw = gateway.New(gateway.Config{Backends: urls, PollInterval: 500 * time.Millisecond, HTTPClient: f.gwClient})
	url, err := f.listen(f.gw.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = url
	return f, nil
}

// close stops the gateway, the HTTP servers and the nodes, then anchors and
// closes every ledger. It waits for every goroutine it started.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.gw != nil {
		f.gw.Close()
	}
	for i, hs := range f.https {
		errs = append(errs, hs.Shutdown(ctx))
		if err := <-f.served[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if f.gwClient != nil {
		f.gwClient.CloseIdleConnections()
	}
	for _, n := range f.nodes {
		errs = append(errs, n.Drain(ctx))
	}
	for _, l := range f.ledgers {
		errs = append(errs, l.Close())
	}
	return errors.Join(errs...)
}

// post sends one job through the gateway and reads the whole reply.
func post(c *http.Client, base string, spec server.JobSpec) reply {
	var rep reply
	body, err := json.Marshal(spec)
	if err != nil {
		rep.err = err
		return rep
	}
	resp, err := c.Post(base+"/v1/"+spec.Kind, "application/json", bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rep.status, rep.tier, rep.source = resp.StatusCode, resp.Header.Get(gateway.CacheHeader), resp.Header.Get(server.EstimateHeader)
	if err != nil {
		rep.err = err
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return rep
	}
	var env server.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		rep.err = err
		return rep
	}
	rep.result = env.Result
	return rep
}

// runServe measures the open loop against the fleet.
func runServe(r *run) error {
	accesses, nodes := serveAccesses, r.workers
	if r.opts.tiny {
		accesses = 6_000
	}
	hot, reqs := schedule(r.opts.seed, r.opts.seconds, accesses)

	// The estimator trains once per process by design (estimate.Default),
	// so it is counted once; the fleet set-up is repeated.
	estStart := time.Now()
	if _, err := estimate.Default(); err != nil {
		return err
	}
	estSeconds := time.Since(estStart).Seconds()
	r.layers["estimate.train_s"] = estSeconds

	client := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: r.workers, MaxIdleConnsPerHost: r.workers}}
	defer client.CloseIdleConnections()
	// Earlier set-ups' fleets stay up, idle, until all are timed, so no
	// set-up pays for tearing down its predecessor.
	var fleets []*fleet
	var warm []json.RawMessage
	setupSeconds, err := setupMedian(serveSetups, func() error {
		workload.DefaultStore.Reset()
		dir := filepath.Join(r.opts.build, fmt.Sprintf("fleet%d", len(fleets)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := startFleet(dir, nodes)
		if err != nil {
			return err
		}
		fleets = append(fleets, f)
		warm = warm[:0]
		for _, spec := range hot {
			rep := post(client, f.url, spec)
			if rep.err != nil {
				return fmt.Errorf("warming the hot set: %w", rep.err)
			}
			warm = append(warm, rep.result)
		}
		return nil
	})
	for i, old := range fleets {
		if i < len(fleets)-1 || err != nil {
			closeErr := old.close()
			r.check("serve.setup_fleet_shutdown", closeErr == nil, fmt.Sprint(closeErr))
		}
	}
	if err != nil {
		return err
	}
	f := fleets[len(fleets)-1]
	r.e2e["setup_s"] = estSeconds + setupSeconds

	storeBefore := workload.DefaultStore.Stats()
	rss := startRSS()
	load := r.tr.begin("serve.load", "", 0)
	reps, wall := openLoop(r, client, f.url, reqs, load)
	r.tr.end(load)
	r.e2e["peak_rss_mb"] = rss.take()
	rss.close()
	storeAfter := workload.DefaultStore.Stats()
	client.CloseIdleConnections()
	closeErr := f.close()
	r.check("serve.fleet_shutdown", closeErr == nil, fmt.Sprint(closeErr))

	var lat, lates []float64
	var oks []bool
	simulated := 0
	for i, rep := range reps {
		ok := rep.err == nil
		lat, oks, lates = append(lat, rep.latency.Seconds()), append(oks, ok), append(lates, rep.late.Seconds())
		if ok && rep.tier == "miss" && (reqs[i].spec.Kind != server.KindEstimate || rep.source == experiments.SourceExactFallback) {
			simulated += reqs[i].spec.Accesses
		}
		if !ok {
			fmt.Fprintf(r.log, "request %d %s/%s failed: %v\n", i, reqs[i].spec.Kind, reqs[i].spec.Workload, rep.err)
		}
	}
	r.e2e["sim_accesses_per_s"] = float64(simulated) / wall
	r.latencyMetrics(lat, oks, serveLimit, wall)
	fmt.Fprintf(r.log, "serve: %d requests at %.0f/s over %d nodes, generator late p50 %.3f ms max %.3f ms\n",
		len(reqs), serveRate, nodes, 1000*median(lates), 1000*quantile(lates, 1))

	serveChecks(r, hot, warm, reqs, reps, f)
	if r.tr != nil {
		r.layers["bench.generator_late_ms_p95"] = 1000 * quantile(lates, 0.95)
		storeHitRatio(r.layers, storeBefore, storeAfter)
		serveLayers(r, f, reqs, reps, wall)
	}
	return nil
}

// openLoop sends every request at its scheduled time, over at most
// r.workers connections, and waits for all replies. Latency counts from the
// scheduled send, so a stall delays every request behind it.
func openLoop(r *run, client *http.Client, base string, reqs []request, parent int) ([]reply, float64) {
	reps := make([]reply, len(reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, q := range reqs {
		due := start.Add(q.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, q request, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			id := r.tr.beginAt("request", fmt.Sprintf("req%d", i), parent, due)
			hop := r.tr.begin("gateway.http", fmt.Sprintf("req%d", i), id)
			rep := post(client, base, q.spec)
			r.tr.end(hop)
			r.tr.end(id)
			rep.finished = time.Now()
			rep.late, rep.latency, rep.service = sent.Sub(due), rep.finished.Sub(due), rep.finished.Sub(sent)
			reps[i] = rep
		}(i, q, due)
	}
	wg.Wait()
	last := start
	for _, rep := range reps {
		if rep.finished.After(last) {
			last = rep.finished
		}
	}
	return reps, last.Sub(start).Seconds()
}

// serveChecks verifies the served bytes: every hot-set reply equals the
// hot cell's first reply, a seeded sample of fresh replies equals the
// direct experiments.Run*Cell result byte for byte, and every node's ledger
// verifies after shutdown.
func serveChecks(r *run, hot []server.JobSpec, warm []json.RawMessage, reqs []request, reps []reply, f *fleet) {
	hotOK, fresh := true, []int{}
	for i, q := range reqs {
		if reps[i].err != nil {
			continue
		}
		if q.hot >= 0 {
			hotOK = hotOK && bytes.Equal(reps[i].result, warm[q.hot])
		} else {
			fresh = append(fresh, i)
		}
	}
	r.check("serve.hot_replies_identical", hotOK, "")

	rng := rand.New(rand.NewSource(r.opts.seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for _, i := range fresh[:min(serveSampled, len(fresh))] {
		s := reqs[i].spec
		want, err := directCell(s)
		ok := err == nil && bytes.Equal(want, reps[i].result)
		r.check(fmt.Sprintf("serve.direct.%s.%s/%s/%d", s.Kind, s.Workload, s.Policy, s.Seed), ok, fmt.Sprint(err))
	}

	for _, path := range f.paths {
		b, err := ledger.ReadDisk(path)
		ok := err == nil
		detail := fmt.Sprint(err)
		if ok {
			rep := ledger.Verify(b)
			ok, detail = rep.OK(), fmt.Sprintf("%d problems", len(rep.Problems))
			b.Close()
		}
		r.check("serve.ledger_verifies."+filepath.Base(path), ok, detail)
	}
	r.checkDigest(digestOf(warm))
}

// directCell runs a job through the experiments entry point gliderd uses
// and marshals it the way the server does.
func directCell(s server.JobSpec) (json.RawMessage, error) {
	ctx := context.Background()
	var v any
	var err error
	switch s.Kind {
	case server.KindSim:
		v, err = experiments.RunCell(ctx, s.Workload, s.Policy, s.Accesses, s.Seed)
	case server.KindPredict:
		v, err = experiments.RunPredictCell(ctx, s.Workload, s.Policy, s.Accesses, s.Seed, 32, 8)
	case server.KindEstimate:
		v, err = experiments.RunEstimateCell(ctx, s.Workload, s.Policy, s.Accesses, s.Seed)
	default:
		return nil, fmt.Errorf("unknown kind %q", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// mergedHist sums one histogram's buckets across registries.
func mergedHist(regs []*obs.Registry, name string) obs.HistSnap {
	var out obs.HistSnap
	for _, reg := range regs {
		for _, h := range reg.Snapshot().Hists {
			if h.Name != name {
				continue
			}
			if out.Buckets == nil {
				out.Buckets = append([]obs.BucketSnap(nil), h.Buckets...)
			} else {
				for i := range h.Buckets {
					out.Buckets[i].Count += h.Buckets[i].Count
				}
			}
			out.Count += h.Count
			out.Sum += h.Sum
		}
	}
	return out
}

// counterSum adds one counter across registries.
func counterSum(regs []*obs.Registry, names ...string) float64 {
	total := 0.0
	for _, reg := range regs {
		for _, n := range names {
			total += float64(reg.Counter(n).Value())
		}
	}
	return total
}

// serveLayers reads the fleet's registries and the replies into the
// per-layer metrics, then decomposes a sample of served simulation cells.
func serveLayers(r *run, f *fleet, reqs []request, reps []reply, wall float64) {
	m := r.layers
	m["server.queue_wait_ms_p95"] = 1000 * mergedHist(f.regs, "server.job.wait.seconds").Quantile(0.95)
	exec := mergedHist(f.regs, "server.job.exec.seconds")
	m["server.exec_ms_p50"] = 1000 * exec.Quantile(0.5)
	m["server.exec_ms_p95"] = 1000 * exec.Quantile(0.95)
	if served := counterSum(f.regs, "server.http.sim", "server.http.predict", "server.http.estimate"); served > 0 {
		m["server.cache_hit_ratio"] = counterSum(f.regs, "server.cache.hits") / served
	}
	m["server.coalesced"] = counterSum(f.regs, "server.jobs.coalesced")
	m["server.rejected"] = counterSum(f.regs, "server.rejected.queue_full", "server.rejected.draining")

	gw := []*obs.Registry{f.gw.Registry()}
	if lookups := counterSum(gw, "gateway.cache.hits", "gateway.cache.misses"); lookups > 0 {
		m["gateway.cache_hit_ratio"] = counterSum(gw, "gateway.cache.hits") / lookups
	}
	m["gateway.retries"] = counterSum(gw, "gateway.retries")
	var hitLat, estimates, surrogate []float64
	for i, rep := range reps {
		if rep.err == nil && rep.tier == "gateway" {
			hitLat = append(hitLat, rep.service.Seconds())
		}
		if rep.err == nil && reqs[i].spec.Kind == server.KindEstimate {
			estimates = append(estimates, 1)
			if rep.source == experiments.SourceSurrogate {
				surrogate = append(surrogate, 1)
			}
		}
	}
	m["gateway.hit_latency_ms_p50"] = 1000 * median(hitLat)
	if len(estimates) > 0 {
		m["estimate.surrogate_frac"] = float64(len(surrogate)) / float64(len(estimates))
	}

	var appends []float64
	for _, b := range f.backends {
		for _, d := range b.durations() {
			appends = append(appends, float64(d.Microseconds()))
		}
	}
	m["ledger.append_us_p50"] = median(appends)
	m["ledger.artifacts"] = counterSum(f.regs, "ledger.artifacts.appended")
	m["ledger.batches"] = counterSum(f.regs, "ledger.batches.anchored")

	jobs := mergedHist(f.regs, "simrunner.job.seconds")
	m["simrunner.job_ms_p50"] = 1000 * jobs.Quantile(0.5)
	m["simrunner.job_ms_max"] = 1000 * jobs.Quantile(1)
	m["simrunner.idle_frac"] = math.Max(0, 1-jobs.Sum/(float64(len(f.nodes))*wall))

	// Decompose every served fresh simulation cell.
	totals, rec := newSplitTotals(), &llcRecorder{}
	var gen []float64
	for i, q := range reqs {
		s := q.spec
		if q.hot >= 0 || s.Kind != server.KindSim || reps[i].err != nil {
			continue
		}
		spec, err := workload.Resolve(s.Workload)
		if err != nil {
			r.check("layers.serve."+s.Policy, false, err.Error())
			continue
		}
		d, err := r.tr.timed("workload.generate", fmt.Sprintf("req%d", i), 0, func() error {
			_, err := spec.GenerateE(s.Accesses, s.Seed)
			return err
		})
		if err == nil {
			gen = append(gen, 1000*d.Seconds())
		}
		c, err := decompose(context.Background(), r.tr, 0, rec, cellInput{
			key:    fmt.Sprintf("req%d", i),
			policy: s.Policy,
			cores:  1,
			llc:    cache.LLCConfig,
			dram:   dram.SingleCoreConfig,
			warmup: s.Accesses / 5,
			trace:  func() (*trace.Trace, error) { return workload.SharedE(spec, s.Accesses, s.Seed) },
			untraced: func(ctx context.Context) (cpu.Result, error) {
				return cpu.SingleCore(ctx, spec, s.Policy, s.Accesses, s.Seed)
			},
		})
		r.check("layers.serve."+s.Policy, err == nil, fmt.Sprint(err))
		if err == nil {
			totals.add(c)
		}
	}
	totals.report(m)
	m["workload.generate_ms"] = median(gen)
}
