package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/dram"
	"glider/internal/policy"
	"glider/internal/trace"
)

// llcAccess is one access the LLC received, demand or writeback.
type llcAccess struct {
	pc, block uint64
	core      uint8
	kind      trace.Kind
}

// llcRecorder is an LLC replacement policy that records the LLC's input
// stream and never evicts (it bypasses once its set is full). The stream an
// LLC receives depends on neither its policy nor its geometry — nothing
// flows back up from the LLC — so a run over a one-line recorder LLC
// measures the L1/L2 filter alone and yields the exact stream every real
// LLC sees.
type llcRecorder struct{ accs []llcAccess }

// recorderLLC is the one-line LLC the recorder sits in.
var recorderLLC = cache.Config{Name: "LLC", Sets: 1, Ways: 1, LatencyCycles: 26}

func (r *llcRecorder) Name() string { return "recorder" }

func (r *llcRecorder) Victim(int, uint64, uint64, uint8, []cache.Line) int { return cache.Bypass }

func (r *llcRecorder) Update(_, _ int, pc, block uint64, core uint8, _ bool, kind trace.Kind) {
	r.accs = append(r.accs, llcAccess{pc, block, core, kind})
}

// cellInput is one timing simulation to decompose: the trace the harness
// would run, its hierarchy shape, and the untraced harness call it mirrors.
type cellInput struct {
	key      string
	policy   string
	cores    int
	llc      cache.Config
	dram     func() dram.Config
	warmup   int
	trace    func() (*trace.Trace, error)
	untraced func(context.Context) (cpu.Result, error)
}

// cellSplit is one decomposed cell: host time per layer, measured by spans.
type cellSplit struct {
	policy      string
	accesses    int
	llcAccesses int           // demand and writeback accesses the LLC received
	llcDemand   int           // demand accesses that reached the LLC
	untraced    time.Duration // the harness call, no spans
	generate    time.Duration // workload.generate span
	run         time.Duration // cpu.run span: the same simulation, traced
	functional  time.Duration // cpu.functional span: same cell without timing
	upper       time.Duration // cache.upper span: L1/L2 filter into the recorder
	replay      time.Duration // policy span: the LLC stream into cache.New
	allocs      uint64        // heap allocations during the replay
}

// timing is the timing model's self time: cpu.Run minus cpu.RunFunctional.
func (c cellSplit) timing() time.Duration { return c.run - c.functional }

// layerSum is what the layer self times add up to for the cell. The upper
// span includes recording the LLC stream, so the sum runs a few percent
// above the cell's own time.
func (c cellSplit) layerSum() time.Duration { return c.generate + c.upper + c.replay + c.timing() }

// decompose runs one cell untraced, then traced four ways — full timing,
// functional, upper filter only, and LLC replay — and cross-checks that all
// four agree on the LLC statistics bit for bit. rec is reused across cells
// so that recording allocates nothing once its buffer has grown.
func decompose(ctx context.Context, tr *tracer, parent int, rec *llcRecorder, in cellInput) (cellSplit, error) {
	out := cellSplit{policy: in.policy}
	start := time.Now()
	want, err := in.untraced(ctx)
	if err != nil {
		return out, err
	}
	out.untraced = time.Since(start)

	cell := tr.begin("cell", in.key, parent)
	defer tr.end(cell)

	var t *trace.Trace
	if out.generate, err = tr.timed("workload.generate", in.key, cell, func() error {
		t, err = in.trace()
		return err
	}); err != nil {
		return out, err
	}
	out.accesses = t.Len()

	var got cpu.Result
	if out.run, err = tr.timed("cpu.run", in.key, cell, func() error {
		h, err := cpu.BuildHierarchy(in.cores, in.policy)
		if err != nil {
			return err
		}
		got, err = cpu.Run(ctx, t, h, dram.New(in.dram()), cpu.DefaultCoreConfig(), in.warmup)
		return err
	}); err != nil {
		return out, err
	}
	if got.IPC != want.IPC || got.LLC != want.LLC || got.DRAM != want.DRAM {
		return out, fmt.Errorf("%s: traced cpu.Run differs from the harness call", in.key)
	}

	var fn cpu.FunctionalResult
	if out.functional, err = tr.timed("cpu.functional", in.key, cell, func() error {
		h, err := cpu.BuildHierarchy(in.cores, in.policy)
		if err != nil {
			return err
		}
		fn, err = cpu.RunFunctional(ctx, t, h, in.warmup, false)
		return err
	}); err != nil {
		return out, err
	}

	rec.accs = rec.accs[:0]
	mark := 0
	if out.upper, err = tr.timed("cache.upper", in.key, cell, func() error {
		h, err := cache.NewHierarchy(in.cores, recorderLLC, rec, nil)
		if err != nil {
			return err
		}
		if _, err := cpu.RunFunctional(ctx, t.Slice(0, in.warmup), h, 0, false); err != nil {
			return err
		}
		mark = len(rec.accs)
		_, err = cpu.RunFunctional(ctx, t.Slice(in.warmup, t.Len()), h, 0, false)
		return err
	}); err != nil {
		return out, err
	}
	out.llcAccesses = len(rec.accs)
	for _, a := range rec.accs {
		if a.kind != trace.Writeback {
			out.llcDemand++
		}
	}

	p, ok := policy.New(in.policy, in.llc.Sets, in.llc.Ways)
	if !ok {
		return out, fmt.Errorf("unknown policy %q", in.policy)
	}
	c, err := cache.New(in.llc, p)
	if err != nil {
		return out, err
	}
	var m0, m1 runtime.MemStats
	out.replay, _ = tr.timed("policy."+metricSafe(in.policy), in.key, cell, func() error {
		runtime.ReadMemStats(&m0)
		for i, a := range rec.accs {
			if i == mark {
				c.ResetStats()
			}
			c.Access(a.pc, a.block, a.core, a.kind)
		}
		runtime.ReadMemStats(&m1)
		return nil
	})
	out.allocs = m1.Mallocs - m0.Mallocs
	if mark == len(rec.accs) {
		c.ResetStats()
	}
	if c.Stats() != fn.LLC || fn.LLC != got.LLC {
		return out, fmt.Errorf("%s: LLC replay, functional and timing runs disagree on LLC statistics", in.key)
	}
	return out, nil
}

// splitTotals aggregates decomposed cells into per-layer metrics.
type splitTotals struct {
	timing, upper, untraced, run, layers time.Duration
	n                                    int
	policyTime                           map[string]time.Duration
	policyLLC                            map[string]int
	policyAllocs                         map[string]uint64
}

func newSplitTotals() *splitTotals {
	return &splitTotals{policyTime: map[string]time.Duration{}, policyLLC: map[string]int{}, policyAllocs: map[string]uint64{}}
}

func (s *splitTotals) add(c cellSplit) {
	s.n += c.accesses
	s.timing += c.timing()
	s.upper += c.upper
	s.untraced += c.untraced
	s.run += c.run
	s.layers += c.layerSum()
	s.policyTime[c.policy] += c.replay
	s.policyLLC[c.policy] += c.llcAccesses
	s.policyAllocs[c.policy] += c.allocs
}

// report writes the simulation-layer metrics into m.
func (s *splitTotals) report(m map[string]float64) {
	if s.n == 0 {
		return
	}
	m["cache.upper_ns_per_access"] = float64(s.upper) / float64(s.n)
	m["cpu.timing_ns_per_access"] = float64(s.timing) / float64(s.n)
	for p, d := range s.policyTime {
		if llc := s.policyLLC[p]; llc > 0 {
			m[policyNsMetric(p)] = float64(d) / float64(llc)
			m[policyAllocsMetric(p)] = float64(s.policyAllocs[p]) / float64(llc)
		}
	}
	m["bench.layer_sum_gap_frac"] = float64(s.layers)/float64(s.untraced) - 1
	m["bench.trace_overhead_frac"] = float64(s.run)/float64(s.untraced) - 1
}
