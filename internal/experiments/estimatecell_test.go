package experiments

import (
	"context"
	"strings"
	"testing"

	"glider/internal/estimate"
	"glider/internal/workload"
)

// TestEstimateCellSurrogateAndFallback pins both answers RunEstimateCell can
// give against the process-wide default model: a cell inside the calibrated
// hull comes back from the surrogate with a positive bound, a cell at a
// trace length the model never trained on falls back to exact simulation
// (zero bound — an exact number carries no error), and an unknown workload
// is an error, not a guess.
func TestEstimateCellSurrogateAndFallback(t *testing.T) {
	ctx := context.Background()

	sur, err := RunEstimateCell(ctx, "omnetpp", "lru", 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sur.Source != SourceSurrogate {
		t.Fatalf("in-hull cell source %q (reason %q), want %q", sur.Source, sur.Reason, SourceSurrogate)
	}
	if sur.MissRateBound <= 0 || sur.IPCBound <= 0 {
		t.Fatalf("surrogate answer without bounds: %+v", sur)
	}

	fb, err := RunEstimateCell(ctx, "omnetpp", "lru", 60_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Source != SourceExactFallback || fb.Reason == "" {
		t.Fatalf("novel trace length: source %q reason %q, want %q with a reason", fb.Source, fb.Reason, SourceExactFallback)
	}
	if fb.MissRateBound != 0 || fb.IPCBound != 0 {
		t.Fatalf("exact fallback carries bounds: %+v", fb)
	}
	exact, err := RunCell(ctx, "omnetpp", "lru", 60_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fb.LLCMissRate != exact.LLCMissRate || fb.IPC != exact.IPC {
		t.Fatalf("fallback (%v, %v) diverges from RunCell (%v, %v)", fb.LLCMissRate, fb.IPC, exact.LLCMissRate, exact.IPC)
	}

	if _, err := RunEstimateCell(ctx, "no-such-workload", "lru", 6000, 7); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

// TestEstimateStudyPlumbing covers the study's cheap parts without paying
// for a full training run: every workload in the training set must resolve
// (a typo here would fail RunEstimate only at full fidelity, minutes in),
// and Render must hold together on a minimal study.
func TestEstimateStudyPlumbing(t *testing.T) {
	wls := EstimateTrainWorkloads()
	if len(wls) < 8 {
		t.Fatalf("training set too small for hull width: %v", wls)
	}
	for _, w := range wls {
		if _, err := workload.Resolve(w); err != nil {
			t.Fatalf("training workload %q does not resolve: %v", w, err)
		}
	}

	var sb strings.Builder
	st := EstimateStudy{
		Train: estimate.Report{Workloads: wls, Cells: 1},
		Sweep: Sweep{
			Workloads:  []string{"omnetpp"},
			Policies:   []string{"lru"},
			Cells:      []SweepCell{{GridCell: GridCell{Workload: "omnetpp", Policy: "lru"}, Source: "exact"}},
			Frontier:   []SweepCell{{GridCell: GridCell{Workload: "omnetpp", Policy: "lru"}, Source: "exact"}},
			ExactCells: 1,
		},
	}
	st.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Surrogate training") || !strings.Contains(out, "omnetpp") {
		t.Fatalf("render output missing sections:\n%s", out)
	}
}
