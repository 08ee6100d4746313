// Package glider implements the paper's contribution: the Glider predictor,
// an Integer Support Vector Machine (ISVM) over a k-sparse unordered feature
// of recent unique PCs (§4.3–§4.4).
//
// The predictor has two hardware structures:
//
//   - the PC History Register (PCHR): a small per-core LRU list holding the
//     last k unique PCs seen by that core (k = 5 in the paper), and
//   - the ISVM table: one ISVM per (hashed) PC, each holding 16 8-bit
//     integer weights. The 4-bit hash of every PCHR entry selects one of the
//     16 weights; prediction sums the selected weights.
//
// Training follows the perceptron/ISVM update rule of §4.4: when OPTgen says
// the line should have been cached the selected weights are incremented,
// otherwise decremented, and no update occurs when the margin already
// exceeds an adaptively chosen threshold from {0, 30, 100, 300, 3000}.
package glider

import (
	"fmt"
	"sort"
)

// Class is Glider's three-way insertion decision (§4.4 "Prediction").
type Class int

// Prediction classes.
const (
	// Averse predicts the line will not be reused: insert at distant RRPV.
	Averse Class = iota
	// FriendlyLowConfidence predicts reuse with low confidence: insert at
	// medium RRPV.
	FriendlyLowConfidence
	// Friendly predicts reuse with high confidence: insert at RRPV 0.
	Friendly
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Averse:
		return "averse"
	case FriendlyLowConfidence:
		return "friendly-low"
	case Friendly:
		return "friendly"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Config sizes a Glider predictor. The zero value is not usable; call
// DefaultConfig.
type Config struct {
	// TableSize is the number of tracked PCs (ISVMs). Power of two.
	TableSize int
	// WeightsPerISVM is the number of weights per ISVM; PCHR entries are
	// hashed into log2(WeightsPerISVM) bits. Power of two.
	WeightsPerISVM int
	// HistoryLen is k, the number of unique PCs kept in each PCHR.
	HistoryLen int
	// Cores is the number of PCHRs to maintain.
	Cores int
	// FriendlyThreshold is the confident-friendly prediction cutoff (≥).
	FriendlyThreshold int
	// AverseThreshold is the cache-averse prediction cutoff (<).
	AverseThreshold int
	// TrainingThresholds is the fixed set the adaptive margin picks from.
	TrainingThresholds []int
}

// DefaultConfig returns the configuration from §4.4 / Table 5: 2048 PCs,
// 16 weights per ISVM, k = 5, prediction thresholds 60 / 0, and adaptive
// training thresholds {0, 30, 100, 300, 3000}.
func DefaultConfig(cores int) Config {
	if cores <= 0 {
		cores = 1
	}
	return Config{
		TableSize:          2048,
		WeightsPerISVM:     16,
		HistoryLen:         5,
		Cores:              cores,
		FriendlyThreshold:  60,
		AverseThreshold:    0,
		TrainingThresholds: []int{0, 30, 100, 300, 3000},
	}
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.TableSize <= 0 || c.TableSize&(c.TableSize-1) != 0 {
		return fmt.Errorf("glider: TableSize must be a positive power of two, got %d", c.TableSize)
	}
	if c.WeightsPerISVM <= 0 || c.WeightsPerISVM&(c.WeightsPerISVM-1) != 0 {
		return fmt.Errorf("glider: WeightsPerISVM must be a positive power of two, got %d", c.WeightsPerISVM)
	}
	if c.HistoryLen <= 0 {
		return fmt.Errorf("glider: HistoryLen must be positive, got %d", c.HistoryLen)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("glider: Cores must be positive, got %d", c.Cores)
	}
	if len(c.TrainingThresholds) == 0 {
		return fmt.Errorf("glider: TrainingThresholds must be non-empty")
	}
	return nil
}

// PCHR is the PC History Register: an unordered set of the last k unique
// PCs, maintained with LRU replacement (§4.4 models it as a small LRU cache
// of PCs).
type PCHR struct {
	k   int
	pcs []uint64 // most recent last
}

// NewPCHR creates an empty history register holding k unique PCs.
func NewPCHR(k int) *PCHR {
	return &PCHR{k: k, pcs: make([]uint64, 0, k)}
}

// Observe records pc as the most recently seen. A pc already present is
// moved to the MRU position rather than duplicated — this is what makes the
// effective control-flow history much longer than k.
func (h *PCHR) Observe(pc uint64) {
	for i, p := range h.pcs {
		if p == pc {
			copy(h.pcs[i:], h.pcs[i+1:])
			h.pcs[len(h.pcs)-1] = pc
			return
		}
	}
	if len(h.pcs) == h.k {
		copy(h.pcs, h.pcs[1:])
		h.pcs[len(h.pcs)-1] = pc
		return
	}
	h.pcs = append(h.pcs, pc)
}

// Snapshot returns a copy of the current contents (order carries no meaning
// to the predictor).
func (h *PCHR) Snapshot() []uint64 {
	out := make([]uint64, len(h.pcs))
	copy(out, h.pcs)
	return out
}

// Len returns the number of PCs currently held.
func (h *PCHR) Len() int { return len(h.pcs) }

// Contains reports whether pc is in the register.
func (h *PCHR) Contains(pc uint64) bool {
	for _, p := range h.pcs {
		if p == pc {
			return true
		}
	}
	return false
}

// Predictor is the Glider ISVM predictor.
type Predictor struct {
	cfg     Config
	weights []int8 // TableSize × WeightsPerISVM
	pchr    []*PCHR

	// Adaptive training-threshold state (O-GEHL-style hill climbing over
	// the fixed threshold set; see DESIGN.md).
	thresholdIdx int
	adaptCounter int

	// Counters for Table 3 cost reporting and diagnostics.
	trainOps   uint64
	predictOps uint64
	samples    uint64
	trainPos   uint64
	trainNeg   uint64
	skipped    uint64
}

// DebugCounts reports (samples, positive updates, negative updates,
// margin-skipped updates) for diagnostics and tests.
func (p *Predictor) DebugCounts() (samples, pos, neg, skipped uint64) {
	return p.samples, p.trainPos, p.trainNeg, p.skipped
}

// WeightStats summarizes the ISVM table's weight distribution — the §4.4
// diagnostic view of what the predictor has learned. Saturated counts warn
// that training pressure exceeds the 8-bit weight range.
type WeightStats struct {
	// Total is the number of weights in the table.
	Total int
	// NonZero, Positive, Negative count trained weights by sign.
	NonZero, Positive, Negative int
	// Saturated counts weights pinned at ±127/−128.
	Saturated int
	// Min and Max are the extreme weight values.
	Min, Max int
	// MeanAbs is the mean absolute weight over non-zero weights.
	MeanAbs float64
}

// WeightStatsNow computes the current weight distribution.
func (p *Predictor) WeightStatsNow() WeightStats {
	s := WeightStats{Total: len(p.weights)}
	absSum := 0
	for _, w := range p.weights {
		v := int(w)
		switch {
		case v > 0:
			s.Positive++
		case v < 0:
			s.Negative++
		}
		if v != 0 {
			s.NonZero++
			if v > 0 {
				absSum += v
			} else {
				absSum -= v
			}
		}
		if v >= 127 || v <= -128 {
			s.Saturated++
		}
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	if s.NonZero > 0 {
		s.MeanAbs = float64(absSum) / float64(s.NonZero)
	}
	return s
}

// RowSnapshot is one ISVM's weight vector, identified by table index (PCs
// hash into indices, so the mapping is not invertible).
type RowSnapshot struct {
	// Index is the ISVM's position in the table.
	Index int
	// L1 is the row's L1 norm — a proxy for how much training it absorbed.
	L1 int
	// Weights is a copy of the row.
	Weights []int8
}

// TopRows returns the n ISVM rows with the largest L1 norm, descending
// (ties broken by index), skipping untouched all-zero rows.
func (p *Predictor) TopRows(n int) []RowSnapshot {
	if n <= 0 {
		return nil
	}
	rows := make([]RowSnapshot, 0, n)
	w := p.cfg.WeightsPerISVM
	for idx := 0; idx < p.cfg.TableSize; idx++ {
		row := p.weights[idx*w : (idx+1)*w]
		l1 := 0
		for _, v := range row {
			if v >= 0 {
				l1 += int(v)
			} else {
				l1 -= int(v)
			}
		}
		if l1 == 0 {
			continue
		}
		rows = append(rows, RowSnapshot{Index: idx, L1: l1})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].L1 != rows[j].L1 {
			return rows[i].L1 > rows[j].L1
		}
		return rows[i].Index < rows[j].Index
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	for i := range rows {
		idx := rows[i].Index
		rows[i].Weights = append([]int8(nil), p.weights[idx*w:(idx+1)*w]...)
	}
	return rows
}

// NewPredictor builds a predictor; it panics on an invalid config (configs
// are compile-time constants in practice).
func NewPredictor(cfg Config) *Predictor {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:     cfg,
		weights: make([]int8, cfg.TableSize*cfg.WeightsPerISVM),
		pchr:    newPCHRs(cfg.Cores, cfg.HistoryLen),
	}
	// Start at the second-lowest threshold: θ = 0 trains only on errors,
	// which is too sparse until the adaptation has evidence to move.
	if len(cfg.TrainingThresholds) > 1 {
		p.thresholdIdx = 1
	}
	return p
}

func newPCHRs(cores, k int) []*PCHR {
	out := make([]*PCHR, cores)
	for i := range out {
		out[i] = NewPCHR(k)
	}
	return out
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// hashTable maps a PC to its ISVM index.
func hashMix(pc uint64) uint64 {
	pc ^= pc >> 33
	pc *= 0xff51afd7ed558ccd
	pc ^= pc >> 33
	pc *= 0xc4ceb9fe1a85ec53
	pc ^= pc >> 33
	return pc
}

func (p *Predictor) tableIndex(pc uint64) int {
	return int(hashMix(pc) & uint64(p.cfg.TableSize-1))
}

// weightIndex maps a history PC to one of the WeightsPerISVM weights (the
// 4-bit hash of §4.4).
func (p *Predictor) weightIndex(historyPC uint64) int {
	return int(hashMix(historyPC^0x5bd1e995) & uint64(p.cfg.WeightsPerISVM-1))
}

// Observe pushes pc into core's PCHR. Call after forming the feature for
// the current access, so features describe the history *before* the access.
func (p *Predictor) Observe(core int, pc uint64) {
	p.pchr[core%len(p.pchr)].Observe(pc)
}

// History snapshots core's PCHR contents.
func (p *Predictor) History(core int) []uint64 {
	return p.pchr[core%len(p.pchr)].Snapshot()
}

// Sum computes the ISVM output for (pc, history): the sum of the weights
// selected by each history element in pc's ISVM.
func (p *Predictor) Sum(pc uint64, history []uint64) int {
	base := p.tableIndex(pc) * p.cfg.WeightsPerISVM
	sum := 0
	for _, h := range history {
		sum += int(p.weights[base+p.weightIndex(h)])
	}
	p.predictOps += uint64(len(history))
	return sum
}

// Predict classifies the incoming line (§4.4): sum ≥ 60 → Friendly,
// sum < 0 → Averse, otherwise FriendlyLowConfidence.
func (p *Predictor) Predict(pc uint64, history []uint64) (int, Class) {
	sum := p.Sum(pc, history)
	switch {
	case sum >= p.cfg.FriendlyThreshold:
		return sum, Friendly
	case sum < p.cfg.AverseThreshold:
		return sum, Averse
	default:
		return sum, FriendlyLowConfidence
	}
}

// TrainingThreshold returns the currently selected adaptive threshold.
func (p *Predictor) TrainingThreshold() int {
	return p.cfg.TrainingThresholds[p.thresholdIdx]
}

// Train applies one supervised update: shouldCache is OPTgen's verdict for
// the access that used (pc, history). Weights move by ±1 with saturation at
// the 8-bit range, and no update occurs when the margin y·sum already
// exceeds the adaptive training threshold.
func (p *Predictor) Train(pc uint64, history []uint64, shouldCache bool) {
	p.samples++
	base := p.tableIndex(pc) * p.cfg.WeightsPerISVM
	sum := 0
	idx := make([]int, 0, len(history))
	for _, h := range history {
		i := base + p.weightIndex(h)
		idx = append(idx, i)
		sum += int(p.weights[i])
	}
	y := 1
	if !shouldCache {
		y = -1
	}
	margin := y * sum
	theta := p.TrainingThreshold()

	// Adapt the threshold with the O-GEHL balance rule: mispredictions vote
	// to raise θ (train harder), updates that were already correct vote to
	// lower it. The counter hill-climbs over the fixed threshold set.
	if margin < 0 {
		p.adaptCounter++
	} else if margin <= theta {
		p.adaptCounter--
	}
	const adaptPeriod = 256
	if p.adaptCounter >= adaptPeriod {
		if p.thresholdIdx < len(p.cfg.TrainingThresholds)-1 {
			p.thresholdIdx++
		}
		p.adaptCounter = 0
	} else if p.adaptCounter <= -adaptPeriod {
		if p.thresholdIdx > 0 {
			p.thresholdIdx--
		}
		p.adaptCounter = 0
	}

	if margin > theta {
		p.skipped++
		return // already confident: no update (prevents saturation)
	}
	if shouldCache {
		p.trainPos++
	} else {
		p.trainNeg++
	}
	p.trainOps += uint64(len(history))
	for _, i := range idx {
		w := int(p.weights[i]) + y
		if w > 127 {
			w = 127
		}
		if w < -128 {
			w = -128
		}
		p.weights[i] = int8(w)
	}
}

// SizeBytes returns the predictor's hardware storage budget: the ISVM table
// (one byte per weight) plus the PCHRs (8 bytes per tracked PC).
func (p *Predictor) SizeBytes() int {
	return len(p.weights) + p.cfg.Cores*p.cfg.HistoryLen*8
}

// CostReport summarizes Table 3-style model cost.
type CostReport struct {
	// SizeBytes is the storage budget.
	SizeBytes int
	// TrainOpsPerSample and PredictOpsPerSample count integer adds per
	// training/prediction sample (k weight reads + k adds ≈ 2k, reported
	// as the paper does: ~8 ops for k=5 including the threshold compare).
	TrainOpsPerSample, PredictOpsPerSample int
}

// Cost returns the analytic per-sample cost of the configured model.
func (p *Predictor) Cost() CostReport {
	return CostReport{
		SizeBytes:           p.SizeBytes(),
		TrainOpsPerSample:   p.cfg.HistoryLen + 3, // k adds + compare + adapt + clamp
		PredictOpsPerSample: p.cfg.HistoryLen + 3,
	}
}
