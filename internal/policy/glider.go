package policy

import (
	"glider/internal/cache"
	gl "glider/internal/glider"
	"glider/internal/obs"
	"glider/internal/trace"
)

// Glider is the paper's replacement policy: the Hawkeye skeleton (OPTgen
// training on sampled sets, RRPV-based insertion/eviction) with Hawkeye's
// per-PC counters replaced by the ISVM predictor over the unordered PC
// History Register (see the glider package).

// Glider is the Glider replacement policy.
type Glider struct {
	state     rrpvState
	predictor *gl.Predictor
	sampler   optSampler[[]uint64] // snapshot: the PCHR the toucher saw

	// Observability (nil when disabled; see AttachObs).
	obsSum      *obs.Histogram
	obsClass    *obs.Vec
	obsTrainPos *obs.Counter
	obsTrainNeg *obs.Counter
	sink        obs.Sink
}

// NewGlider builds a Glider policy with the paper's default predictor
// configuration, sized for up to 8 cores.
func NewGlider(sets, ways int) *Glider {
	return NewGliderWithConfig(sets, ways, gl.DefaultConfig(8))
}

// NewGliderWithConfig builds a Glider policy with an explicit predictor
// configuration (used by the ablation benchmarks).
func NewGliderWithConfig(sets, ways int, cfg gl.Config) *Glider {
	return &Glider{
		state:     newRRPVState(sets, ways),
		predictor: gl.NewPredictor(cfg),
		sampler:   newOptSampler[[]uint64](sets, ways),
	}
}

// Name implements cache.Policy.
func (p *Glider) Name() string { return "glider" }

// Predictor exposes the underlying ISVM predictor (for accuracy
// measurements and Table 3 cost reporting).
func (p *Glider) Predictor() *gl.Predictor { return p.predictor }

// AttachObs implements obs.Attacher: predictor confidence (ISVM sum
// distribution and three-way class counts), training-event counters, and
// the sampled sets' OPTgen verdict/occupancy telemetry. Safe to call with
// nil arguments (stays disabled).
func (p *Glider) AttachObs(reg *obs.Registry, sink obs.Sink) {
	if reg == nil && sink == nil {
		return
	}
	p.obsSum = reg.Histogram("glider.predict.sum", obs.LinearBuckets(-120, 30, 9))
	p.obsClass = reg.Vec("glider.predict.class", 3, gl.Averse.String(), gl.FriendlyLowConfidence.String(), gl.Friendly.String())
	p.obsTrainPos = reg.Counter("glider.train.pos")
	p.obsTrainNeg = reg.Counter("glider.train.neg")
	p.sampler.attachObs(reg, "glider")
	p.sink = sink
}

// FlushObs implements obs.Flusher: emits the ISVM weight distribution and
// the most-trained rows as end-of-run events (Fig. 5-style inspection).
func (p *Glider) FlushObs() {
	if p.sink == nil {
		return
	}
	ws := p.predictor.WeightStatsNow()
	samples, pos, neg, skipped := p.predictor.DebugCounts()
	p.sink.Emit("glider", "weights", map[string]any{
		"total": ws.Total, "nonzero": ws.NonZero, "positive": ws.Positive,
		"negative": ws.Negative, "saturated": ws.Saturated,
		"min": ws.Min, "max": ws.Max, "mean_abs": ws.MeanAbs,
		"samples": samples, "train_pos": pos, "train_neg": neg, "train_skipped": skipped,
		"threshold": p.predictor.TrainingThreshold(),
	})
	for _, row := range p.predictor.TopRows(8) {
		p.sink.Emit("glider", "isvm_row", map[string]any{
			"index": row.Index, "l1": row.L1, "weights": row.Weights,
		})
	}
}

// Victim implements cache.Policy: averse lines (RRPV 7) first; otherwise
// the oldest friendly line.
func (p *Glider) Victim(set int, pc, block uint64, core uint8, lines []cache.Line) int {
	return p.state.scan(set)
}

// Update implements cache.Policy.
func (p *Glider) Update(set, way int, pc, block uint64, core uint8, hit bool, kind trace.Kind) {
	if kind == trace.Writeback {
		if way >= 0 && !hit {
			p.state.rrpv[set][way] = maxRRPV
		}
		return
	}

	// Feature for this access: the PCHR contents *before* observing pc.
	history := p.predictor.History(int(core))

	// Train on sampled sets from OPTgen's reconstruction of MIN. ISVM
	// training is order-sensitive (the adaptive threshold and
	// sum-dependent skips make Train calls non-commutative), which is why
	// the sampler expires records in sorted order.
	p.sampler.access(set, pc, block, history, func(prev sample[[]uint64], cached bool) {
		p.predictor.Train(prev.pc, prev.snap, cached)
		if cached {
			p.obsTrainPos.Inc()
		} else {
			p.obsTrainNeg.Inc()
		}
	})

	sum, class := p.predictor.Predict(pc, history)
	if p.obsSum != nil {
		p.obsSum.Observe(float64(sum))
		p.obsClass.Inc(int(class))
	}
	p.predictor.Observe(int(core), pc)

	if way < 0 {
		return
	}
	if hit {
		switch class {
		case gl.Averse:
			p.state.rrpv[set][way] = maxRRPV
		default:
			p.state.rrpv[set][way] = 0
		}
		return
	}
	// Fill: insertion priority from the three-way prediction (§4.4).
	switch class {
	case gl.Friendly:
		p.state.rrpv[set][way] = 0
		for w := range p.state.rrpv[set] {
			if w != way && p.state.rrpv[set][w] < maxRRPV-1 {
				p.state.rrpv[set][w]++
			}
		}
	case gl.FriendlyLowConfidence:
		p.state.rrpv[set][way] = 2
	default:
		p.state.rrpv[set][way] = maxRRPV
	}
}

// PredictFriendly reports whether the predictor would classify an access as
// cache-friendly (ISVM sum at or above the averse boundary), without
// touching any state — the binary classification Figure 10's accuracy
// comparison is defined over.
func (p *Glider) PredictFriendly(pc uint64, core uint8) bool {
	sum := p.predictor.Sum(pc, p.predictor.History(int(core)))
	return sum >= p.predictor.Config().AverseThreshold
}
