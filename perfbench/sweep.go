package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/experiments"
	"glider/internal/obs"
	"glider/internal/policy"
	"glider/internal/trace"
	"glider/internal/workload"
)

// Sweep sizes: every registered policy over sweepWorkloads, at a trace
// length that fills the 2 MB LLC past its one-fifth warm-up.
const (
	sweepAccesses = 60_000
	sweepSetups   = 15
	sweepLimit    = 2.0 // seconds; a cell slower than this misses goodput
)

// runSweep measures experiments.RunSweepExhaustive, the full-timing
// (cpu.SingleCore) policy sweep, repeated until the measured time is up.
// Set-up generates every trace into a cold store.
func runSweep(r *run) error {
	names, pols, accesses := sweepWorkloads, policy.Names(), sweepAccesses
	if r.opts.tiny {
		names, pols, accesses = names[:2], []string{"lru", "hawkeye", "glider"}, 8_000
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		s, err := workload.Resolve(n)
		if err != nil {
			return err
		}
		specs[i] = s
	}
	seed := r.opts.seed
	var keys []traceKey
	for _, s := range specs {
		keys = append(keys, traceKey{s, accesses, seed})
	}
	var err error
	if r.e2e["setup_s"], err = setupMedian(sweepSetups, func() error { return generateAll(r, keys) }); err != nil {
		return err
	}

	cfg := experiments.Quick()
	cfg.Accesses, cfg.Seed, cfg.Workers = accesses, seed, r.workers
	opts := experiments.SweepOptions{Workloads: names, Policies: pols}
	if r.tr != nil {
		return sweepTraced(r, cfg, opts, specs, pols)
	}

	sink := obs.NewRingSink(1 << 16)
	cfg.Sink = sink
	var first experiments.Sweep
	start := time.Now()
	rates, peaks, digest := r.repeatUnits("sweep", func() (int, string, error) {
		sw, err := experiments.RunSweepExhaustive(cfg, opts)
		if first.Cells == nil {
			first = sw
		}
		return len(sw.Cells) * accesses, digestOf(sw.Cells), err
	})
	wall := time.Since(start).Seconds()
	jobs, _ := runnerEvents(sink)
	lat, oks := jobLatencies(jobs)
	r.e2e["sim_accesses_per_s"] = median(rates)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.latencyMetrics(lat, oks, sweepLimit, wall)

	if first.Cells != nil {
		r.checkDigest(digest)
		sweepDifferential(r, first, accesses, seed)
	}
	return nil
}

// sweepDifferential re-runs a seeded sample of sweep cells serially through
// experiments.RunCell; each must match the sweep's cell bit for bit.
func sweepDifferential(r *run, sw experiments.Sweep, accesses int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(sw.Cells))[:min(4, len(sw.Cells))] {
		c := sw.Cells[i]
		got, err := experiments.RunCell(context.Background(), c.Workload, c.Policy, accesses, seed)
		ok := err == nil && got.IPC == c.IPC && got.LLCMissRate == c.LLCMissRate
		r.check("sweep.rerun."+c.Workload+"/"+c.Policy, ok, fmt.Sprintf("ipc %v miss %v", c.IPC, c.LLCMissRate))
	}
}

// traceKey names one generated trace.
type traceKey struct {
	spec workload.Spec
	n    int
	seed int64
}

// generateAll resets the trace store and generates every trace into it: the
// cold-store set-up. Traced runs record one span per trace and accumulate
// the mean generation time per trace.
func generateAll(r *run, keys []traceKey) error {
	workload.DefaultStore.Reset()
	setup := r.tr.begin("setup", "", 0)
	defer r.tr.end(setup)
	for _, k := range keys {
		d, err := r.tr.timed("workload.generate", k.spec.Name, setup, func() error {
			_, err := workload.SharedE(k.spec, k.n, k.seed)
			return err
		})
		if err != nil {
			return err
		}
		if r.tr != nil {
			r.layers["workload.generate_ms"] += 1000 * d.Seconds() / float64(len(keys))
		}
	}
	return nil
}

// sweepTraced runs one untraced sweep unit for the runner metrics, then
// decomposes every cell serially into its layers.
func sweepTraced(r *run, cfg experiments.Config, opts experiments.SweepOptions, specs []workload.Spec, pols []string) error {
	r.layers["workload.generate_ms"] /= sweepSetups // generateAll accumulated every set-up

	sink := obs.NewRingSink(1 << 14)
	cfg.Sink = sink
	before := workload.DefaultStore.Stats()
	unit := r.tr.begin("sweep.unit", "", 0)
	sw, err := experiments.RunSweepExhaustive(cfg, opts)
	r.tr.end(unit)
	r.check("sweep.unit", err == nil, fmt.Sprint(err))
	storeHitRatio(r.layers, before, workload.DefaultStore.Stats())
	jobs, capacity := runnerEvents(sink)
	runnerLayers(r.layers, jobs, capacity)

	totals, rec := newSplitTotals(), &llcRecorder{}
	ctx := context.Background()
	for _, spec := range specs {
		demand, accesses := 0, 0
		for _, pol := range pols {
			spec, pol := spec, pol
			c, err := decompose(ctx, r.tr, 0, rec, cellInput{
				key:    spec.Name + "/" + pol,
				policy: pol,
				cores:  1,
				llc:    cache.LLCConfig,
				dram:   dram.SingleCoreConfig,
				warmup: cfg.Accesses / 5,
				trace:  func() (*trace.Trace, error) { return workload.SharedE(spec, cfg.Accesses, cfg.Seed) },
				untraced: func(ctx context.Context) (cpu.Result, error) {
					return cpu.SingleCore(ctx, spec, pol, cfg.Accesses, cfg.Seed)
				},
			})
			r.check("layers."+spec.Name+"/"+pol, err == nil, fmt.Sprint(err))
			if err != nil {
				continue
			}
			totals.add(c)
			demand, accesses = c.llcDemand, c.accesses
		}
		if accesses > 0 {
			r.layers[llcFracMetric(spec.Name)] = float64(demand) / float64(accesses)
		}
	}
	totals.report(r.layers)
	if err == nil {
		r.checkDigest(digestOf(sw.Cells))
	}
	return nil
}

// storeHitRatio reports the trace store's hit ratio between two snapshots.
func storeHitRatio(m map[string]float64, before, after workload.StoreStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		m["workload.store_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}
