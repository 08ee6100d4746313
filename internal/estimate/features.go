// Package estimate implements a learned proxy simulator: a small,
// integer-friendly surrogate model that predicts a simulation cell's
// LLC miss rate and IPC from trace-analysis features, orders of magnitude
// faster than running the cycle-level simulator (the TAO / NeuroScalar
// direction from PAPERS.md).
//
// The contract is that a surrogate number is never silently wrong: every
// prediction carries a calibrated error bound (split-conformal residual
// quantile from a held-out calibration split, inflated for safety), and a
// confidence gate refuses to answer at all — forcing exact simulation —
// when the query falls outside the feature hull the model was trained on
// or names a policy it has no head for. Sweep pruning
// (experiments.RunSweepPruned) leans on the bounds to prove that every
// cell on the true per-workload frontier is simulated exactly.
package estimate

import (
	"math"
	"sort"

	"glider/internal/trace"
)

// LLCBlocks is the simulated last-level cache capacity in 64-byte blocks
// (2 MiB, Table 1) — the capacity the reuse-capture features are anchored
// on.
const LLCBlocks = 32768

// histBuckets is the number of power-of-two reuse-distance histogram
// features; the last bucket absorbs the tail.
const histBuckets = 16

// topPCShare is the PC-concentration feature's cut: the access share of the
// hottest topPCShare PCs.
const topPCShare = 8

// FeatureDim is the length of the feature vector.
const FeatureDim = 2 + histBuckets + 3 + 5 + 1

// featureWindow caps the prefix the reuse/PC statistics are computed on.
// The O(N log N) stack-distance analysis over a full million-access trace
// would cost as much as several simulations — the thing the surrogate
// exists to avoid — and a 128K-access prefix characterizes the workload
// just as well. log2_accesses still reflects the full requested length.
const featureWindow = 131072

// Features computes the feature vector of a trace: reuse-distance
// histogram and capture fractions (the quantities the workload generators
// are calibrated against), per-PC reuse aggregates relative to the LLC
// capacity, and PC-concentration statistics. The computation is
// deterministic: every aggregate over a map is accumulated in integers
// (order-free) or iterated in sorted order, so the same trace yields
// bit-identical features on every run and machine.
func Features(t *trace.Trace) []float64 {
	f := make([]float64, FeatureDim)
	n := t.Len()
	if n == 0 {
		return f
	}
	win := t
	if n > featureWindow {
		win = &trace.Trace{Name: t.Name, Accesses: t.Accesses[:featureWindow]}
	}
	prof := trace.ReuseDistances(win, true)

	f[0] = math.Log2(float64(n))
	wn := win.Len()
	f[1] = float64(prof.ColdMisses) / float64(wn)
	if prof.Samples > 0 {
		for i, c := range prof.Buckets {
			b := i
			if b >= histBuckets {
				b = histBuckets - 1
			}
			f[2+b] += float64(c) / float64(prof.Samples)
		}
		// Mean log2 reuse distance, normalized by the bucket count so the
		// feature stays O(1).
		mean := 0.0
		for i, c := range prof.Buckets {
			mean += (float64(i) + 0.5) * float64(c)
		}
		f[FeatureDim-1] = mean / float64(prof.Samples) / float64(len(prof.Buckets))
	}
	base := 2 + histBuckets
	f[base+0] = prof.CapturedBy(LLCBlocks / 8)
	f[base+1] = prof.CapturedBy(LLCBlocks)
	f[base+2] = prof.CapturedBy(4 * LLCBlocks)

	counts := make(map[uint64]int, len(prof.PerPC))
	for _, a := range win.Accesses {
		counts[a.PC]++
	}
	pcBase := base + 3
	f[pcBase+0] = float64(len(counts)) / float64(wn)
	// Access mass by the PC's median reuse distance vs the LLC capacity.
	// Integer accumulation: map iteration order cannot change the result.
	var friendly, averse, cold int
	for pc, c := range counts {
		switch med := prof.PerPC[pc]; {
		case med < 0:
			cold += c
		case med < LLCBlocks:
			friendly += c
		default:
			averse += c
		}
	}
	f[pcBase+1] = float64(friendly) / float64(wn)
	f[pcBase+2] = float64(averse) / float64(wn)
	f[pcBase+3] = float64(cold) / float64(wn)

	pcs := make([]uint64, 0, len(counts))
	for pc := range counts {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool {
		if counts[pcs[i]] != counts[pcs[j]] {
			return counts[pcs[i]] > counts[pcs[j]]
		}
		return pcs[i] < pcs[j]
	})
	top := 0
	for i, pc := range pcs {
		if i >= topPCShare {
			break
		}
		top += counts[pc]
	}
	f[pcBase+4] = float64(top) / float64(wn)
	return f
}
