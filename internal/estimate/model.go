package estimate

import (
	"math"

	"glider/internal/ml"
)

// Head is one policy's pair of quantized regression heads plus the
// calibrated conformal bounds computed for them. Separate heads per policy
// (rather than one additive model over a policy one-hot) let the surrogate
// capture policy×workload interactions — the whole point of a replacement
// study is that the best policy changes with the workload.
type Head struct {
	// Miss and IPC predict the cell's LLC miss rate and IPC from the
	// standardized feature vector. They serve anchored: the head's answer is
	// the exact value stored at the nearest anchor point plus the linear
	// model's delta between the query and that anchor, so the weights only
	// need to carry the local gradient, not the absolute level.
	Miss, IPC *ml.IntLinear
	// AnchorMiss and AnchorIPC are the exact simulation results at the
	// anchor split, aligned with Estimator.AnchorFeats — the "cells the
	// repo has already simulated" that predictions are corrected against.
	AnchorMiss, AnchorIPC []float64
	// QMiss and QIPC are the policy's global conformal error bounds: the
	// maximum absolute residual over the held-out calibration split,
	// inflated by the training config's safety factor and floored. Under
	// the conformal assumption, |prediction − truth| ≤ Q.
	QMiss, QIPC float64
	// CalibMiss and CalibIPC are the per-calibration-point absolute
	// residuals, aligned with Estimator.CalibFeats. Predict localizes the
	// bound with them: the residual at the nearest calibration point (same
	// workload, held-out seed — the served distribution) is usually far
	// tighter than the global max across all workloads.
	CalibMiss, CalibIPC []float64
	// MeanMiss and MeanIPC are the mean calibration residuals, used to
	// widen local bounds proportionally to the query's distance from its
	// nearest calibration point.
	MeanMiss, MeanIPC float64
	// NoiseMiss and NoiseIPC are per-calibration-point aleatoric floors,
	// aligned with Estimator.CalibFeats: the cross-seed spread of the exact
	// target over the training seeds at that (workload, accesses) grid
	// point. The true value moves this much between traces no matter how
	// good the features are — stochastic policies and duel-based insertion
	// move more than deterministic ones, and noisy workloads more than
	// stable ones — so the local bound adds the floor of the calibration
	// point it leans on.
	NoiseMiss, NoiseIPC []float64
}

// Estimator is the trained surrogate: shared feature standardization and
// training hull, plus one Head per policy.
type Estimator struct {
	// Mean and Scale standardize raw features (computed on the fit split;
	// Scale is 1 for constant features).
	Mean, Scale []float64
	// Min and Max bound each raw feature over the full training set — the
	// novelty hull the confidence gate checks queries against.
	Min, Max []float64
	// Slack widens the hull per feature by Slack×(Max−Min) on each side;
	// AbsSlack adds an absolute widening on top, so small-span features
	// (most are fractions in [0,1]) tolerate cross-seed jitter instead of
	// flagging novelty on a 0.01 shift.
	Slack, AbsSlack float64
	// AnchorFeats are the standardized anchor-split feature vectors; the
	// exact values stored at them (Head.AnchorMiss) are the base every
	// prediction is corrected from.
	AnchorFeats [][]float64
	// CalibFeats are the standardized calibration-split feature vectors,
	// the reference points for the localized bounds (see Head.CalibMiss).
	CalibFeats [][]float64
	// Inflate, MinMissBound, MinIPCBound are the bound parameters baked at
	// training time: bound = max(floor, Inflate×(r_nn + dist×r_mean)).
	Inflate, MinMissBound, MinIPCBound float64
	// Heads maps policy name → trained heads.
	Heads map[string]*Head
}

// Prediction is one surrogate answer. When Confident is false the numbers
// are zero and Reason says why the gate refused — the caller must fall back
// to exact simulation.
type Prediction struct {
	// MissRate and IPC are the point predictions (miss rate clamped to
	// [0,1], IPC clamped non-negative — the same clamps calibration used,
	// so the bounds cover the clamped values).
	MissRate, IPC float64
	// MissBound and IPCBound are the policy's conformal bounds.
	MissBound, IPCBound float64
	// Confident reports whether the gate accepted the query.
	Confident bool
	// Reason is "untrained-policy" or "novel-features" when not confident.
	Reason string
}

// Gate-refusal reasons.
const (
	ReasonUntrainedPolicy = "untrained-policy"
	ReasonNovelFeatures   = "novel-features"
)

// Predict runs the confidence gate and, when it passes, the policy's heads
// on a raw (unstandardized) feature vector.
func (e *Estimator) Predict(policyName string, feats []float64) Prediction {
	h, ok := e.Heads[policyName]
	if !ok {
		return Prediction{Reason: ReasonUntrainedPolicy}
	}
	if !e.inHull(feats) {
		return Prediction{Reason: ReasonNovelFeatures}
	}
	z := e.standardize(feats)
	miss, ipc := e.predictHead(h, z)
	qMiss, qIPC := e.localBounds(h, z, miss, ipc)
	return Prediction{
		MissRate:  miss,
		IPC:       ipc,
		MissBound: qMiss,
		IPCBound:  qIPC,
		Confident: true,
	}
}

// predictHead evaluates one head's anchored, clamped point prediction on a
// standardized feature vector: the exact value stored at the nearest anchor
// point plus the linear delta w·(z − anchor). Falls back to the plain
// linear prediction when the model carries no anchors.
func (e *Estimator) predictHead(h *Head, z []float64) (miss, ipc float64) {
	miss = h.Miss.Predict(z)
	ipc = h.IPC.Predict(z)
	if len(e.AnchorFeats) > 0 && len(h.AnchorMiss) == len(e.AnchorFeats) && len(h.AnchorIPC) == len(e.AnchorFeats) {
		nn, _ := nearest(e.AnchorFeats, z)
		a := e.AnchorFeats[nn]
		miss = h.AnchorMiss[nn] + miss - h.Miss.Predict(a)
		ipc = h.AnchorIPC[nn] + ipc - h.IPC.Predict(a)
	}
	return clamp01(miss), max0(ipc)
}

// nearest returns the index of the point closest to z (squared L2, ties
// broken by lowest index — deterministic) and the dimension-normalized RMS
// distance to it.
func nearest(points [][]float64, z []float64) (int, float64) {
	nn, best := 0, math.Inf(1)
	for i, c := range points {
		d := 0.0
		for j, zj := range z {
			diff := zj - c[j]
			d += diff * diff
		}
		if d < best {
			best, nn = d, i
		}
	}
	return nn, math.Sqrt(best / float64(len(z)))
}

// localBounds localizes the head's conformal bounds to the query via the
// error decomposition
//
//	|pred(z) − truth(z)| ≤ |pred(z) − pred(c)| + |pred(c) − truth(c)| + |truth(c) − truth(z)|
//
// where c is the nearest calibration point (ties broken by lowest index —
// deterministic). The first term — prediction drift — is exactly computable
// because the predictor is deterministic; it is what feature jitter
// amplified through the fitted weights costs, and it is NOT inflated (it
// is not an estimate). The second is the stored calibration residual at c.
// The third is how much the true value moves between traces: the
// calibration point's aleatoric noise floor, plus a mean-residual term
// growing with distance for queries that sit between calibration points.
// Those two are statistical estimates, so they and the residual take the
// safety inflation. A query on a calibration workload at a fresh seed
// lands next to that workload's calibration point and inherits its
// (typically small) residual; a query far from every calibration point
// pays extra. Falls back to the global bounds when the model carries no
// calibration points. missZ/ipcZ are the query's own predictions (already
// computed by the caller), reused for the drift term.
func (e *Estimator) localBounds(h *Head, z []float64, missZ, ipcZ float64) (qMiss, qIPC float64) {
	if len(e.CalibFeats) == 0 || len(h.CalibMiss) != len(e.CalibFeats) || len(h.CalibIPC) != len(e.CalibFeats) {
		return h.QMiss, h.QIPC
	}
	nn, dist := nearest(e.CalibFeats, z)
	missC, ipcC := e.predictHead(h, e.CalibFeats[nn])
	noiseMiss, noiseIPC := 0.0, 0.0
	if len(h.NoiseMiss) == len(e.CalibFeats) {
		noiseMiss = h.NoiseMiss[nn]
	}
	if len(h.NoiseIPC) == len(e.CalibFeats) {
		noiseIPC = h.NoiseIPC[nn]
	}
	qMiss = math.Max(e.Inflate*(h.CalibMiss[nn]+noiseMiss+dist*h.MeanMiss)+abs(missZ-missC), e.MinMissBound)
	qIPC = math.Max(e.Inflate*(h.CalibIPC[nn]+noiseIPC+dist*h.MeanIPC)+abs(ipcZ-ipcC), e.MinIPCBound)
	return qMiss, qIPC
}

// inHull reports whether every raw feature lies inside the training hull
// widened by Slack×span + AbsSlack per side. The relative term scales with
// the training diversity; the absolute term absorbs trace-seed jitter on
// near-constant features (including log2_accesses, where AbsSlack ≈ a few
// percent of trace length — a model trained at one length stays pinned
// near it).
func (e *Estimator) inHull(feats []float64) bool {
	if len(feats) != len(e.Min) {
		return false
	}
	for i, x := range feats {
		tol := e.Slack*(e.Max[i]-e.Min[i]) + e.AbsSlack
		if x < e.Min[i]-tol || x > e.Max[i]+tol {
			return false
		}
	}
	return true
}

func (e *Estimator) standardize(feats []float64) []float64 {
	z := make([]float64, len(feats))
	for i, x := range feats {
		z[i] = (x - e.Mean[i]) / e.Scale[i]
	}
	return z
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func max0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
