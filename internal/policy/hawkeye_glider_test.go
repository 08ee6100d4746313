package policy

import (
	"testing"

	"glider/internal/cache"
	gl "glider/internal/glider"
	"glider/internal/trace"
)

// streamAndHot drives a mixed workload: one PC streams (averse) while two
// blocks are continuously reused (friendly) — the canonical pattern an
// OPT-trained predictor must separate.
func streamAndHot(c *cache.Cache, iters int, startBlock uint64) uint64 {
	next := startBlock
	for i := 0; i < iters; i++ {
		c.Access(200, 1, 0, trace.Load)
		c.Access(201, 2, 0, trace.Load)
		c.Access(100, next, 0, trace.Load)
		next += 64 // distinct sets to exercise samplers broadly
	}
	return next
}

func TestHawkeyeSeparatesStreamFromHot(t *testing.T) {
	p := NewHawkeye(64, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 64, Ways: 4}, p)
	next := streamAndHot(c, 4000, 1000)
	if !p.PredictFriendly(200, 0) || !p.PredictFriendly(201, 0) {
		t.Fatal("Hawkeye failed to learn the reused PCs are friendly")
	}
	if p.PredictFriendly(100, 0) {
		t.Fatal("Hawkeye failed to learn the streaming PC is averse")
	}
	c.ResetStats()
	streamAndHot(c, 200, next)
	if s := c.Stats(); s.Hits < 390 {
		t.Fatalf("Hawkeye hits = %d of 600, want ≥ 390", s.Hits)
	}
}

func TestHawkeyeTrainingEventsFlow(t *testing.T) {
	p := NewHawkeye(64, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 64, Ways: 4}, p)
	streamAndHot(c, 6000, 1000)
	d := p.Debug()
	if d.TrainPos == 0 {
		t.Fatal("no positive training events")
	}
	if d.TrainNeg == 0 {
		t.Fatal("no negative training events (expiry sweep broken)")
	}
}

func TestGliderSeparatesStreamFromHot(t *testing.T) {
	p := NewGlider(64, 4)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 64, Ways: 4}, p)
	next := streamAndHot(c, 4000, 1000)
	if !p.PredictFriendly(200, 0) {
		t.Fatal("Glider failed to learn the reused PC is friendly")
	}
	c.ResetStats()
	streamAndHot(c, 200, next)
	if s := c.Stats(); s.Hits < 390 {
		t.Fatalf("Glider hits = %d of 600, want ≥ 390", s.Hits)
	}
}

// contextWorkload drives the pattern Glider exists for: a shared target PC
// whose reuse depends on which caller marker preceded it. Hawkeye's per-PC
// counter cannot separate the two cases; Glider's PCHR feature can.
func contextWorkload(c *cache.Cache, iters int, hotObjs uint64, coldStart uint64) uint64 {
	cold := coldStart
	hot := uint64(0)
	for i := 0; i < iters; i++ {
		if i%2 == 0 {
			// Friendly caller: object drawn from a small recycled pool.
			c.Access(10, 0, 0, trace.Load) // caller A marker (own stream line)
			c.Access(10, cold, 0, trace.Load)
			cold += 64
			obj := 5000 + (hot%hotObjs)*64
			hot++
			c.Access(42, obj, 0, trace.Load) // shared target
		} else {
			c.Access(11, cold, 0, trace.Load) // caller B marker
			cold += 64
			c.Access(11, cold, 0, trace.Load)
			cold += 64
			c.Access(42, cold, 0, trace.Load) // shared target, cold object
			cold += 64
		}
	}
	return cold
}

func TestGliderBeatsHawkeyeOnContext(t *testing.T) {
	sets, ways := 64, 4
	run := func(p cache.Policy) uint64 {
		c, _ := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways}, p)
		cold := contextWorkload(c, 30000, 128, 1<<20)
		c.ResetStats()
		contextWorkload(c, 3000, 128, cold)
		return c.Stats().Hits
	}
	hawkeyeHits := run(NewHawkeye(sets, ways))
	gliderHits := run(NewGlider(sets, ways))
	if gliderHits <= hawkeyeHits {
		t.Fatalf("Glider (%d hits) should beat Hawkeye (%d hits) on context-dependent reuse", gliderHits, hawkeyeHits)
	}
}

func TestGliderPredictorAccessors(t *testing.T) {
	p := NewGlider(64, 4)
	if p.Predictor() == nil {
		t.Fatal("nil predictor")
	}
	if p.Name() != "glider" {
		t.Fatalf("name = %q", p.Name())
	}
	cfg := gl.DefaultConfig(2)
	cfg.HistoryLen = 3
	p2 := NewGliderWithConfig(64, 4, cfg)
	if p2.Predictor().Config().HistoryLen != 3 {
		t.Fatal("custom config not applied")
	}
}

func TestHawkeyeWritebackInsertsDistant(t *testing.T) {
	p := NewHawkeye(4, 2)
	c, _ := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2}, p)
	// A writeback fill must not displace demand lines preferentially: it
	// inserts at distant RRPV, so the next demand miss evicts it first.
	c.Access(1, 0, 0, trace.Writeback)
	c.Access(2, 4, 0, trace.Load)
	c.Access(3, 8, 0, trace.Load) // set 0 full; must evict the writeback
	if c.Lookup(0) && !c.Lookup(8) {
		t.Fatal("writeback line survived over demand lines")
	}
}

func TestVictimPrefersAverse(t *testing.T) {
	p := NewHawkeye(1, 2)
	lines := []cache.Line{{Valid: true, Tag: 1, PC: 9}, {Valid: true, Tag: 2, PC: 9}}
	p.state.rrpv[0][0] = 3
	p.state.rrpv[0][1] = maxRRPV
	if got := p.Victim(0, 1, 3, 0, lines); got != 1 {
		t.Fatalf("victim = %d, want the RRPV-7 way", got)
	}
}

// TestVictimDetrainsFriendlyOnce pins the other Victim path: with no way at
// RRPV 7, the oldest friendly line is evicted and its inserting PC is
// detrained exactly once, on that line's own core.
func TestVictimDetrainsFriendlyOnce(t *testing.T) {
	p := NewHawkeye(1, 2)
	lines := []cache.Line{{Valid: true, Tag: 1, PC: 9, Core: 1}, {Valid: true, Tag: 2, PC: 5, Core: 1}}
	p.state.rrpv[0][0] = 2
	p.state.rrpv[0][1] = 3
	i := p.counterIndex(lines[1].PC, lines[1].Core)
	before, counter := p.Debug().TrainNeg, p.counters[i]
	if got := p.Victim(0, 1, 3, 0, lines); got != 1 {
		t.Fatalf("victim = %d, want the highest-RRPV way", got)
	}
	if got := p.Debug().TrainNeg; got != before+1 {
		t.Fatalf("TrainNeg = %d, want %d", got, before+1)
	}
	if got := p.counters[i]; got != counter-1 {
		t.Fatalf("counter = %d, want %d", got, counter-1)
	}
}
