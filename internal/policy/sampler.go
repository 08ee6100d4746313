package policy

import (
	"slices"

	"glider/internal/obs"
	"glider/internal/opt"
)

// optgenWindowFactor sizes each set's OPTgen history window, in set
// accesses × associativity. The CRC2 Hawkeye uses an 8×-associativity
// window; see sampler for why this simulator uses 4×.
const optgenWindowFactor = 4

// sweepPeriod is the global cadence, in demand LLC accesses, at which the
// learners expire sampler records that fell out of their windows un-reused.
// Per-set cadences would fire only a couple of times per run at simulation
// scale, delaying all negative training to the end of the trace.
const sweepPeriod = 4096

// sample is one sampler record: the PC that last touched a block, the
// owner's clock at that touch, and the owner's snapshot of what its model
// saw then (Glider's PC history, FRD's and MSA's predictions).
type sample[T any] struct {
	snap T
	pc   uint64
	time uint64
}

// sampler is the sampled-set trainer shared by Hawkeye, Glider, FRD and
// MSA: per set, the last toucher of each block, so that the block's next
// access — or its expiry un-reused — trains what the model predicted at
// that touch. Each owner keeps its own clock and training step.
//
// Every set is sampled. The CRC2 Hawkeye samples 64 of 2048 sets, but its
// traces are ~150× longer than this simulator's synthetic ones: at that
// density a sampled set here would see barely one window's worth of
// accesses in an entire run, and the predictor would never observe expiry
// (negative) signal. Sampling every set with a 4× window gives each
// predictor a comparable number of training events per simulated access —
// a simulation-scale adaptation documented in DESIGN.md §5.
type sampler[T any] struct {
	ways int
	sets []map[uint64]sample[T] // block → last toucher; nil until first touched
}

func newSampler[T any](sets, ways int) sampler[T] {
	return sampler[T]{ways: ways, sets: make([]map[uint64]sample[T], sets)}
}

// touch replaces block's record in set with the one next returns. next
// receives the record it replaces (ok is false when there is none) before
// the store, so an owner trains on the previous touch first and then
// snapshots its model after that training.
func (s *sampler[T]) touch(set int, block uint64, next func(prev sample[T], ok bool) sample[T]) {
	m := s.sets[set]
	if m == nil {
		m = make(map[uint64]sample[T], optgenWindowFactor*s.ways)
		s.sets[set] = m
	}
	prev, ok := m[block]
	m[block] = next(prev, ok)
}

// expire hands every record older than window — measured against now(set),
// the owner's clock for its set — to fn and deletes it. Sets are visited in
// ascending order and each set's blocks in ascending order: Glider's,
// FRD's and MSA's training steps do not commute (adaptive thresholds,
// regression steps), so map-range order would make whole simulations
// nondeterministic.
func (s *sampler[T]) expire(window uint64, now func(set int) uint64, fn func(sample[T])) {
	var stale []uint64
	for set, m := range s.sets {
		if len(m) == 0 {
			continue
		}
		t := now(set)
		stale = stale[:0]
		for b, e := range m {
			if t-e.time > window {
				stale = append(stale, b)
			}
		}
		slices.Sort(stale)
		for _, b := range stale {
			fn(m[b])
			delete(m, b)
		}
	}
}

// optSampler is the Hawkeye/Glider trainer: a sampler whose sets each run
// an OPTgen, so a block's previous toucher learns MIN's verdict on that
// use, and whose clock for a set is that set's OPTgen clock.
type optSampler[T any] struct {
	sampler[T]
	optgen   []*opt.OPTgen // nil until the set is first accessed
	accesses uint64

	// Observability shared by every set's OPTgen (nil when disabled).
	obsVerdicts *obs.Vec
	obsOcc      *obs.Histogram
}

func newOptSampler[T any](sets, ways int) optSampler[T] {
	return optSampler[T]{sampler: newSampler[T](sets, ways), optgen: make([]*opt.OPTgen, sets)}
}

// attachObs registers the OPTgen verdict and utilization metrics under
// name and publishes every set's OPTgen telemetry, present and future,
// into them.
func (s *optSampler[T]) attachObs(reg *obs.Registry, name string) {
	s.obsVerdicts = reg.Vec(name+".optgen.verdict", len(opt.VerdictLabels), opt.VerdictLabels...)
	s.obsOcc = reg.Histogram(name+".optgen.utilization", obs.LinearBuckets(0.1, 0.1, 10))
	for _, g := range s.optgen {
		if g != nil {
			g.AttachObs(s.obsVerdicts, s.obsOcc)
		}
	}
}

// access runs one demand access through set's OPTgen, trains the block's
// previous toucher with MIN's verdict (cached or not; cold verdicts carry
// no signal), and records pc with snap as the new toucher. Every
// sweepPeriod accesses it also trains every record that fell out of its
// set's window un-reused as not cached.
func (s *optSampler[T]) access(set int, pc, block uint64, snap T, train func(prev sample[T], cached bool)) {
	g := s.optgen[set]
	if g == nil {
		g = opt.NewOPTgen(s.ways, optgenWindowFactor*s.ways)
		g.AttachObs(s.obsVerdicts, s.obsOcc)
		s.optgen[set] = g
	}
	verdict := g.Access(block)
	s.touch(set, block, func(prev sample[T], ok bool) sample[T] {
		if ok && verdict != opt.VerdictCold {
			train(prev, verdict == opt.VerdictHit)
		}
		return sample[T]{snap: snap, pc: pc, time: g.Clock()}
	})
	s.accesses++
	if s.accesses%sweepPeriod == 0 {
		s.expire(uint64(optgenWindowFactor*s.ways),
			func(set int) uint64 { return s.optgen[set].Clock() },
			func(stale sample[T]) { train(stale, false) })
	}
}
