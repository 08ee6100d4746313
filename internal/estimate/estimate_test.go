package estimate

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"glider/internal/cpu"
	"glider/internal/workload"
)

// tinyConfig is a training grid small enough to simulate in well under a
// second: 3 workloads × 2 trace lengths × 3 seeds × 3 policies.
func tinyConfig() TrainConfig {
	return TrainConfig{
		Workloads:    []string{"omnetpp", "mcf", "sphinx3"},
		Policies:     []string{"lru", "lfu", "srrip"},
		AccessesList: []int{4_000, 8_000},
		Seed:         1234,
	}
}

// tinyModel trains the tiny grid once per test binary and hands out the
// shared result (training is pure; tests only read the model).
var tinyModel = sync.OnceValues(func() (*Estimator, error) {
	est, _, err := Train(context.Background(), tinyConfig())
	return est, err
})

func tinyEstimator(t *testing.T) *Estimator {
	t.Helper()
	est, err := tinyModel()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// featsFor extracts features from a fresh trace of a training workload.
func featsFor(t *testing.T, name string, accesses int, seed int64) []float64 {
	t.Helper()
	spec, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.SharedE(spec, accesses, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Features(tr)
}

// TestTrainDeterministicAcrossWorkers pins the reproducibility claim the
// byte-identity guarantees rest on: the same config must yield an identical
// model — quantized weights, anchors, residuals, hull, everything — on a
// rerun and on any worker count.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	base := tinyEstimator(t)
	for _, workers := range []int{1, 4} {
		cfg := tinyConfig()
		cfg.Workers = workers
		got, _, err := Train(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: model differs from baseline", workers)
		}
	}
}

// TestConfidenceGate exercises all three gate outcomes: accept (in-hull
// query on a trained policy), refuse on an untrained policy, refuse on
// novel features.
func TestConfidenceGate(t *testing.T) {
	est := tinyEstimator(t)

	in := featsFor(t, "mcf", 8_000, 77)
	p := est.Predict("lru", in)
	if !p.Confident {
		t.Fatalf("in-hull query refused: %q", p.Reason)
	}
	if p.MissRate < 0 || p.MissRate > 1 || p.IPC < 0 {
		t.Fatalf("implausible prediction: %+v", p)
	}
	if p.MissBound < est.MinMissBound || p.IPCBound < est.MinIPCBound {
		t.Fatalf("bounds below the floors: %+v", p)
	}

	if p := est.Predict("glider", in); p.Confident || p.Reason != ReasonUntrainedPolicy {
		t.Fatalf("untrained policy: %+v", p)
	}

	// A 60k-access trace sits far outside the tiny model's log2_accesses
	// hull, so the gate must refuse rather than extrapolate.
	out := featsFor(t, "mcf", 60_000, 77)
	if p := est.Predict("lru", out); p.Confident || p.Reason != ReasonNovelFeatures {
		t.Fatalf("novel features accepted: %+v", p)
	}
}

// TestBoundCoverageOnFreshSeeds is the quality wall: on fresh traces of the
// training workloads (a seed no split saw), surrogate answers must track
// the exact simulation within their own reported bounds for nearly every
// cell, and on average much tighter than the worst case. The tolerances are
// deliberately checked in: if a refactor of the features, the quantization,
// or the bound math degrades the surrogate, this fails before any consumer
// notices.
func TestBoundCoverageOnFreshSeeds(t *testing.T) {
	est := tinyEstimator(t)
	cfg := tinyConfig()
	const freshSeed = 4321

	cells, covered := 0, 0
	var sumAbsErr float64
	for _, wl := range cfg.Workloads {
		spec, err := workload.Lookup(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, acc := range cfg.AccessesList {
			tr, err := workload.SharedE(spec, acc, freshSeed)
			if err != nil {
				t.Fatal(err)
			}
			feats := Features(tr)
			for _, pol := range cfg.Policies {
				p := est.Predict(pol, feats)
				if !p.Confident {
					t.Fatalf("%s/%d/%s: gate refused a training-grid cell: %s", wl, acc, pol, p.Reason)
				}
				res, err := cpu.SingleCore(context.Background(), spec, pol, acc, freshSeed)
				if err != nil {
					t.Fatal(err)
				}
				errMiss := math.Abs(p.MissRate - res.LLC.MissRate())
				sumAbsErr += errMiss
				cells++
				if errMiss <= p.MissBound {
					covered++
				}
			}
		}
	}
	// Conformal bounds promise coverage, not worst-case truth: demand at
	// least 16 of the 18 fresh cells inside their bounds, and a mean
	// absolute miss-rate error under 0.05.
	if covered < cells-2 {
		t.Fatalf("bound coverage %d/%d, want >= %d", covered, cells, cells-2)
	}
	if mae := sumAbsErr / float64(cells); mae > 0.05 {
		t.Fatalf("mean absolute miss-rate error %.4f exceeds 0.05", mae)
	}
}

// TestFeaturesDeterministic pins that feature extraction is a pure function
// of the trace.
func TestFeaturesDeterministic(t *testing.T) {
	a := featsFor(t, "omnetpp", 4_000, 5)
	b := featsFor(t, "omnetpp", 4_000, 5)
	if len(a) != FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(a), FeatureDim)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("features differ across extractions of the same trace")
	}
}

func TestTrainRejectsBadConfigs(t *testing.T) {
	bad := []TrainConfig{
		{Workloads: []string{"omnetpp"}, Policies: []string{"lru"}, AccessesList: []int{1000}},
		{Workloads: []string{"omnetpp", "mcf"}, AccessesList: []int{1000}},
		{Workloads: []string{"omnetpp", "mcf"}, Policies: []string{"lru"}},
		{Workloads: []string{"omnetpp", "nope"}, Policies: []string{"lru"}, AccessesList: []int{1000}},
		{Workloads: []string{"omnetpp", "mcf"}, Policies: []string{"lru", "lru"}, AccessesList: []int{1000}},
	}
	for i, cfg := range bad {
		if _, _, err := Train(context.Background(), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
