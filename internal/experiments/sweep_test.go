package experiments

import (
	"context"
	"reflect"
	"testing"

	"glider/internal/estimate"
)

// sweepTestModel trains a small surrogate for the sweep tests: three
// workloads, six policies, one trace length. 60k accesses is the shortest
// trace where the policies genuinely separate on these workloads (shorter
// traces never fill the 2 MiB LLC, every policy ties at cold-miss rate,
// and the margin set degenerates to the whole grid).
func sweepTestModel(t *testing.T) (*estimate.Estimator, []string, []string) {
	t.Helper()
	wls := []string{"omnetpp", "mcf", "sphinx3"}
	pols := []string{"lru", "lfu", "srrip", "ship++", "dip", "mru"}
	est, _, err := estimate.Train(context.Background(), estimate.TrainConfig{
		Workloads:    wls,
		Policies:     pols,
		AccessesList: []int{60_000},
		Seed:         1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est, wls, pols
}

// TestSweepPrunedNeverWrongOnFrontier is the pruning guarantee the ISSUE
// demands a proof for: on a grid the surrogate has never seen (a fresh
// trace seed), the pruned sweep's frontier must be identical to the
// exhaustive sweep's, every frontier cell must be exact, and every cell
// both sweeps simulated exactly must be bit-identical. The policy list
// includes one policy the model has no head for, so the gate-refusal
// fallback path is exercised too.
func TestSweepPrunedNeverWrongOnFrontier(t *testing.T) {
	est, wls, pols := sweepTestModel(t)
	pols = append(pols, "glider") // untrained: the gate must force exact simulation

	cfg := Quick() // 60k accesses at seed 42 — a seed no training split saw
	opts := SweepOptions{Workloads: wls, Policies: pols, Estimator: est}

	pr, err := RunSweepPruned(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := RunSweepExhaustive(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, ex, "e19087af24031898f4fc73450729391da9d10ff01c8b77bcf976acd7ec7fc72a", "79cba9fc8b679992573889f15e640e419a824799c9df965152730a8d54f9d7e9")
	checkDigests(t, pr, "5d5684825aae571ca4d650385ad4a75d72eccb998e86ced4100ed512d983562d", "a55ad8df8331704357f3861930782f1f5440c5ed32170a148e281dae68748f8d")

	if !reflect.DeepEqual(pr.Frontier, ex.Frontier) {
		t.Fatalf("pruned frontier diverges from exhaustive:\npruned:     %+v\nexhaustive: %+v", pr.Frontier, ex.Frontier)
	}
	for _, c := range pr.Frontier {
		if c.Source != "exact" {
			t.Fatalf("frontier cell %s/%s reported from source %q, want exact", c.Workload, c.Policy, c.Source)
		}
	}

	if len(pr.Cells) != len(wls)*len(pols) || len(pr.Cells) != len(ex.Cells) {
		t.Fatalf("pruned sweep has %d cells, want %d", len(pr.Cells), len(wls)*len(pols))
	}
	if pr.ExactCells+pr.SurrogateCells != len(pr.Cells) {
		t.Fatalf("cell accounting: %d exact + %d surrogate != %d cells", pr.ExactCells, pr.SurrogateCells, len(pr.Cells))
	}
	if pr.SurrogateCells == 0 {
		t.Fatal("no cells were pruned: the surrogate did nothing")
	}

	// Shared exact cells are bit-identical (same simulation entry point),
	// untrained-policy cells are always exact, and surrogate cells carry a
	// positive bound.
	exact := make(map[string]SweepCell, len(ex.Cells))
	for _, c := range ex.Cells {
		exact[c.Workload+"\x00"+c.Policy] = c
	}
	for _, c := range pr.Cells {
		if c.Source == "exact" {
			want := exact[c.Workload+"\x00"+c.Policy]
			if c != want {
				t.Fatalf("exact cell %s/%s differs between pruned and exhaustive: %+v vs %+v", c.Workload, c.Policy, c, want)
			}
			continue
		}
		if c.Policy == "glider" {
			t.Fatalf("untrained policy served by the surrogate: %+v", c)
		}
		if c.MissRateBound <= 0 {
			t.Fatalf("surrogate cell %s/%s has no error bound: %+v", c.Workload, c.Policy, c)
		}
	}
}

// TestSweepPrunedDeterministicAcrossWorkers pins that the pruned sweep —
// surrogate pass, two exact batches, frontier — is bit-identical across
// worker counts and reruns, the property the byte-identity guarantees of
// /v1/estimate and the gateway cache rest on.
func TestSweepPrunedDeterministicAcrossWorkers(t *testing.T) {
	est, wls, pols := sweepTestModel(t)
	cfg := Quick()
	var base Sweep
	for i, workers := range []int{0, 1, 4} {
		cfg.Workers = workers
		s, err := RunSweepPruned(cfg, SweepOptions{Workloads: wls, Policies: pols, Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = s
			continue
		}
		if !reflect.DeepEqual(s, base) {
			t.Fatalf("workers=%d: pruned sweep differs from baseline", workers)
		}
	}
}
