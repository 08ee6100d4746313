package policy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// mapSampler is the reference sampler: one map per set, with each expiry
// sorting the stale keys it collects by ranging over the map. It is the
// simplest correct statement of the order sampler must reproduce.
type mapSampler[T any] struct {
	sets []map[uint64]sample[T]
}

func (s *mapSampler[T]) touch(set int, block uint64, next func(prev sample[T], ok bool) sample[T]) {
	if s.sets[set] == nil {
		s.sets[set] = make(map[uint64]sample[T])
	}
	prev, ok := s.sets[set][block]
	s.sets[set][block] = next(prev, ok)
}

func (s *mapSampler[T]) expire(window uint64, now func(set int) uint64, fn func(sample[T])) {
	for set, m := range s.sets {
		if len(m) == 0 {
			continue
		}
		t := now(set)
		var stale []uint64
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

// TestSamplerMatchesMapReference drives the queue sampler and the map
// reference with the same seeded touch/expire sequences — a few sets, heavy
// block reuse, per-set (OPTgen) and global (FRD/MSA) clocks, windows from 0
// up — and demands the same prev/ok hand-offs, the same expiry call
// sequence and the same surviving records.
func TestSamplerMatchesMapReference(t *testing.T) {
	t.Parallel()
	for _, perSetClock := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("perSet=%v/seed=%d", perSetClock, seed), func(t *testing.T) {
				checkSamplerDifferential(t, seed, perSetClock)
			})
		}
	}
}

func checkSamplerDifferential(t *testing.T, seed int64, perSetClock bool) {
	const sets = 4
	r := rand.New(rand.NewSource(seed))
	got := newSampler[uint64](sets, 2)
	want := mapSampler[uint64]{sets: make([]map[uint64]sample[uint64], sets)}
	clocks := make([]uint64, sets)
	var global uint64
	now := func(set int) uint64 {
		if perSetClock {
			return clocks[set]
		}
		return global
	}
	blocks := uint64(4 + r.Intn(40))
	var gotLog, wantLog []samplerEvent
	for step := 0; step < 20_000; step++ {
		if r.Intn(50) == 0 {
			window := []uint64{0, 1, 3, 8, 32, 200}[r.Intn(6)]
			gotLog = append(gotLog, samplerEvent{op: "expire", window: window})
			wantLog = append(wantLog, samplerEvent{op: "expire", window: window})
			got.expire(window, now, func(e sample[uint64]) { gotLog = append(gotLog, samplerEvent{op: "fn", rec: e}) })
			want.expire(window, now, func(e sample[uint64]) { wantLog = append(wantLog, samplerEvent{op: "fn", rec: e}) })
			continue
		}
		set := r.Intn(sets)
		block := uint64(r.Int63n(int64(blocks)))
		if r.Intn(10) == 0 {
			block = uint64(r.Int63()) // a rarely reused block
		}
		// The clock advances by 0–2 ticks, so equal stamps occur too.
		tick := uint64(r.Intn(3))
		clocks[set] += tick
		global += tick
		rec := sample[uint64]{snap: r.Uint64(), pc: uint64(r.Intn(16)), time: now(set)}
		got.touch(set, block, func(prev sample[uint64], ok bool) sample[uint64] {
			gotLog = append(gotLog, samplerEvent{op: "prev", rec: prev, ok: ok})
			return rec
		})
		want.touch(set, block, func(prev sample[uint64], ok bool) sample[uint64] {
			wantLog = append(wantLog, samplerEvent{op: "prev", rec: prev, ok: ok})
			return rec
		})
	}
	if i := firstDiff(gotLog, wantLog); i >= 0 {
		t.Fatalf("event %d: queue sampler %+v, map reference %+v", i, logAt(gotLog, i), logAt(wantLog, i))
	}
	for set, q := range got.sets {
		left := map[uint64]sample[uint64]{}
		for i, rec := range q {
			if i > 0 && rec.time < q[i-1].time {
				t.Fatalf("set %d: queue out of time order at %d", set, i)
			}
			left[rec.block] = rec.sample
		}
		if len(left) != len(q) {
			t.Fatalf("set %d: queue holds a block twice", set)
		}
		ref := want.sets[set]
		if ref == nil {
			ref = map[uint64]sample[uint64]{}
		}
		if !reflect.DeepEqual(left, ref) {
			t.Fatalf("set %d: surviving records differ: queue %v, reference %v", set, left, ref)
		}
	}
}

// samplerEvent is one logged hand-off: a touch's prev/ok, an expiry call,
// or a record passed to the expiry's fn.
type samplerEvent struct {
	op     string
	rec    sample[uint64]
	ok     bool
	window uint64
}

func firstDiff(a, b []samplerEvent) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if logAt(a, i) != logAt(b, i) {
			return i
		}
	}
	return -1
}

func logAt(log []samplerEvent, i int) samplerEvent {
	if i < len(log) {
		return log[i]
	}
	return samplerEvent{op: "<end>"}
}

// TestLRFUDecayTableExact pins LRFU's value to crf·0.5^(λ·age), bit for bit,
// for ages below, at and above the decay table's cap, including after λ
// changes.
func TestLRFUDecayTableExact(t *testing.T) {
	t.Parallel()
	p := NewLRFU(1, 1, 0.001)
	ages := []uint64{0, 1, 2, 7, 1000, lrfuDecayCap - 1, lrfuDecayCap, lrfuDecayCap + 1, 1 << 20, 3, 1 << 40}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ages = append(ages, uint64(r.Int63n(2*lrfuDecayCap)))
	}
	for _, lambda := range []float64{0.001, 1, 0.5, 1e-7, 0.001} {
		p.Lambda = lambda
		for _, age := range ages {
			p.crf[0][0] = 1 + r.Float64()*8
			p.stamp[0][0] = 12345
			p.clock = 12345 + age
			want := p.crf[0][0] * math.Pow(0.5, lambda*float64(age))
			if got := p.value(0, 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("λ=%g age=%d: value %v (%#x), want %v (%#x)", lambda, age, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
