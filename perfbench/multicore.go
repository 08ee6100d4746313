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
	"glider/internal/trace"
	"glider/internal/workload"
)

// Multicore sizes: a reduced Figure 13 (4-core mixes on the shared 8 MB LLC
// with the quad-core DRAM model, plus the solo baselines).
const (
	mcMixes           = 8
	mcAccessesPerCore = 25_000
	mcSetups          = 15
	mcLimit           = 10.0 // seconds; a job slower than this misses goodput
	mcTracedMixes     = 2    // mixes whose shared runs a traced run decomposes
)

// runMulticore measures experiments.RunFig13 over the paper's policy set,
// repeated until the measured time is up.
func runMulticore(r *run) error {
	cfg := experiments.Quick()
	cfg.Mixes, cfg.MixAccessesPerCore, cfg.Seed, cfg.Workers = mcMixes, mcAccessesPerCore, r.opts.seed, r.workers
	if r.opts.tiny {
		cfg.Mixes, cfg.MixAccessesPerCore = 1, 6_000
	}
	mixes := workload.Mixes(cfg.Mixes, 4, cfg.Seed)
	pols := append([]string{"lru"}, experiments.PolicySet...)

	// Figure 13 reads each member's trace twice: at the run seed for the
	// solo baseline and at seed+core for the shared run.
	var keys []traceKey
	seen := map[string]bool{}
	soloPairs := map[string]bool{}
	for _, mix := range mixes {
		for i, s := range mix.Members {
			for _, k := range []traceKey{{s, cfg.MixAccessesPerCore, cfg.Seed}, {s, cfg.MixAccessesPerCore, cfg.Seed + int64(i)}} {
				if id := fmt.Sprintf("%s/%d", k.spec.Name, k.seed); !seen[id] {
					seen[id] = true
					keys = append(keys, k)
				}
			}
			soloPairs[s.Name] = true
		}
	}
	unitAccesses := cfg.MixAccessesPerCore * (len(soloPairs)*len(pols) + len(mixes)*len(pols)*4)

	var err error
	if r.e2e["setup_s"], err = setupMedian(mcSetups, func() error { return generateAll(r, keys) }); err != nil {
		return err
	}
	if r.tr != nil {
		return multicoreTraced(r, cfg, mixes, pols)
	}

	sink := obs.NewRingSink(1 << 16)
	cfg.Sink = sink
	var first experiments.Fig13
	start := time.Now()
	rates, peaks, digest := r.repeatUnits("multicore", func() (int, string, error) {
		fig, err := experiments.RunFig13(cfg)
		if first.Speedups == nil {
			first = fig
		}
		return unitAccesses, digestOf(fig), err
	})
	wall := time.Since(start).Seconds()
	jobs, _ := runnerEvents(sink)
	lat, oks := jobLatencies(jobs)
	r.e2e["sim_accesses_per_s"] = median(rates)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.latencyMetrics(lat, oks, mcLimit, wall)

	if first.Speedups != nil {
		r.checkDigest(digest)
		multicoreDifferential(r, cfg, mixes, first)
	}
	return nil
}

// multicoreDifferential recomputes one seeded (mix, policy) weighted
// speedup serially through cpu.MultiCore and cpu.SoloOnShared; the value
// must appear bit for bit in the Figure 13 result.
func multicoreDifferential(r *run, cfg experiments.Config, mixes []workload.Mix, fig experiments.Fig13) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix := mixes[rng.Intn(len(mixes))]
	pol := experiments.PolicySet[rng.Intn(len(experiments.PolicySet))]
	ctx := context.Background()
	weighted := func(p string) (float64, error) {
		shared, err := cpu.MultiCore(ctx, mix, p, cfg.MixAccessesPerCore, cfg.Seed)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for i, spec := range mix.Members {
			solo, err := cpu.SoloOnShared(ctx, spec, 4, p, cfg.MixAccessesPerCore, cfg.Seed)
			if err != nil {
				return 0, err
			}
			sum += shared.PerCoreIPC[i] / solo.IPC
		}
		return sum, nil
	}
	ws, err1 := weighted(pol)
	lru, err2 := weighted("lru")
	want := 100 * (ws - lru) / lru
	found := false
	for _, v := range fig.Speedups[pol] {
		found = found || v == want
	}
	r.check(fmt.Sprintf("multicore.rerun.mix%d/%s", mix.ID, pol), err1 == nil && err2 == nil && found, fmt.Sprintf("speedup %v%%", want))
}

// multicoreTraced runs one untraced Figure 13 unit for the runner metrics,
// then decomposes the shared runs of the first mcTracedMixes mixes, one per
// policy.
func multicoreTraced(r *run, cfg experiments.Config, mixes []workload.Mix, pols []string) error {
	r.layers["workload.generate_ms"] /= mcSetups // generateAll accumulated every set-up

	sink := obs.NewRingSink(1 << 14)
	cfg.Sink = sink
	before := workload.DefaultStore.Stats()
	unit := r.tr.begin("multicore.unit", "", 0)
	fig, err := experiments.RunFig13(cfg)
	r.tr.end(unit)
	r.check("multicore.unit", err == nil, fmt.Sprint(err))
	storeHitRatio(r.layers, before, workload.DefaultStore.Stats())
	jobs, capacity := runnerEvents(sink)
	runnerLayers(r.layers, jobs, capacity)

	totals, rec := newSplitTotals(), &llcRecorder{}
	for _, mix := range mixes[:min(mcTracedMixes, len(mixes))] {
		mix := mix
		merged := func() (*trace.Trace, error) {
			per := make([]*trace.Trace, len(mix.Members))
			for i, s := range mix.Members {
				t, err := workload.SharedE(s, cfg.MixAccessesPerCore, cfg.Seed+int64(i))
				if err != nil {
					return nil, err
				}
				per[i] = t
			}
			return trace.Interleave(fmt.Sprintf("mix%d", mix.ID), per...), nil
		}
		for _, pol := range pols {
			pol := pol
			key := fmt.Sprintf("mix%d/%s", mix.ID, pol)
			c, err := decompose(context.Background(), r.tr, 0, rec, cellInput{
				key:    key,
				policy: pol,
				cores:  len(mix.Members),
				llc:    cache.SharedLLCConfig4,
				dram:   dram.QuadCoreConfig,
				warmup: len(mix.Members) * cfg.MixAccessesPerCore / 5,
				trace:  merged,
				untraced: func(ctx context.Context) (cpu.Result, error) {
					return cpu.MultiCore(ctx, mix, pol, cfg.MixAccessesPerCore, cfg.Seed)
				},
			})
			r.check("layers."+key, err == nil, fmt.Sprint(err))
			if err == nil {
				totals.add(c)
			}
		}
	}
	totals.report(r.layers)
	if err == nil {
		r.checkDigest(digestOf(fig))
	}
	return nil
}
