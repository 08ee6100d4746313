package policy

import (
	"cmp"
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
// Each set's records sit in one slice in touch order, oldest first. Every
// owner stamps records from a clock that never runs backwards (the set's
// OPTgen clock for Hawkeye and Glider, the global demand clock for FRD and
// MSA), so a set's queue is also ordered by time and its expired records
// are always a prefix of it.
//
// Every set is sampled. The CRC2 Hawkeye samples 64 of 2048 sets, but its
// traces are ~150× longer than this simulator's synthetic ones: at that
// density a sampled set here would see barely one window's worth of
// accesses in an entire run, and the predictor would never observe expiry
// (negative) signal. Sampling every set with a 4× window gives each
// predictor a comparable number of training events per simulated access —
// a simulation-scale adaptation documented in DESIGN.md §5.
type sampler[T any] struct {
	sets  [][]record[T] // per set, records in touch order (oldest first)
	stale []record[T]   // expire's scratch: one set's expired prefix
}

// record is one queued sampler entry: the block and its last toucher.
type record[T any] struct {
	block uint64
	sample[T]
}

// newSampler carves every set's queue from one slab with room for
// optgenWindowFactor×ways records, a window's worth; a set that outgrows
// it moves to its own array.
func newSampler[T any](sets, ways int) sampler[T] {
	per := optgenWindowFactor * ways
	slab := make([]record[T], sets*per)
	s := sampler[T]{sets: make([][]record[T], sets)}
	for i := range s.sets {
		s.sets[i] = slab[i*per : i*per : (i+1)*per]
	}
	return s
}

// touch replaces block's record in set with the one next returns. next
// receives the record it replaces (ok is false when there is none) before
// the store, so an owner trains on the previous touch first and then
// snapshots its model after that training. The record returned must carry
// a time no earlier than any other in the set.
func (s *sampler[T]) touch(set int, block uint64, next func(prev sample[T], ok bool) sample[T]) {
	q := s.sets[set]
	// Search newest first: a re-touched block was most often touched
	// recently.
	i := len(q) - 1
	for i >= 0 && q[i].block != block {
		i--
	}
	if i < 0 {
		s.sets[set] = append(q, record[T]{block: block, sample: next(sample[T]{}, false)})
		return
	}
	prev := q[i].sample
	copy(q[i:], q[i+1:])
	q[len(q)-1] = record[T]{block: block, sample: next(prev, true)}
}

// expire hands every record older than window — measured against now(set),
// the owner's clock for its set — to fn and drops it. The expired records
// are a prefix of each queue, so the scan of a set stops at its first live
// record. Sets are
// visited in ascending order and each set's expired blocks in ascending
// block order: Glider's, FRD's and MSA's training steps do not commute
// (adaptive thresholds, regression steps), so the order is part of every
// simulation's output.
func (s *sampler[T]) expire(window uint64, now func(set int) uint64, fn func(sample[T])) {
	for set, q := range s.sets {
		if len(q) == 0 {
			continue
		}
		t := now(set)
		n := 0
		for n < len(q) && t-q[n].time > window {
			n++
		}
		if n == 0 {
			continue
		}
		s.stale = append(s.stale[:0], q[:n]...)
		slices.SortFunc(s.stale, func(a, b record[T]) int { return cmp.Compare(a.block, b.block) })
		for _, r := range s.stale {
			fn(r.sample)
		}
		clear(s.stale)
		rest := copy(q, q[n:])
		clear(q[rest:])
		s.sets[set] = q[:rest]
	}
}

// optSampler is the Hawkeye/Glider trainer: a sampler whose sets each run
// an OPTgen, so a block's previous toucher learns MIN's verdict on that
// use, and whose clock for a set is that set's OPTgen clock.
type optSampler[T any] struct {
	sampler[T]
	ways     int
	optgen   []*opt.OPTgen // nil until the set is first accessed
	accesses uint64

	// Observability shared by every set's OPTgen (nil when disabled).
	obsVerdicts *obs.Vec
	obsOcc      *obs.Histogram
}

func newOptSampler[T any](sets, ways int) optSampler[T] {
	return optSampler[T]{sampler: newSampler[T](sets, ways), ways: ways, optgen: make([]*opt.OPTgen, sets)}
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
