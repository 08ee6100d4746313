package experiments

// learned.go is the comparative learned-replacement sweep: every learned
// policy family in the repo (Hawkeye's OPT-trained classifier, Glider's
// ISVM, the FRD forward-reuse-distance regressor, the MSA multi-step-ahead
// evictor) against the LRU baseline, across the paper's Table 2 benchmark
// set. It answers ROADMAP item 3's question — how do the post-Glider
// learned families compare on the paper's own workloads — with the same
// deterministic parallel-runner machinery as every other sweep.

import (
	"fmt"
	"io"

	"glider/internal/workload"
)

// LearnedPolicySet is the learned-replacement comparison set plus the LRU
// baseline, in render order.
var LearnedPolicySet = []string{"lru", "hawkeye", "glider", "frd", "msa"}

// Learned is the learned-policy sweep result: Cells ordered benchmark-major
// in OfflineSet order, policy order LearnedPolicySet.
type Learned struct {
	Benchmarks []string   `json:"benchmarks"`
	Policies   []string   `json:"policies"`
	Cells      []GridCell `json:"cells"`
}

// RunLearned sweeps the Table 2 benchmark set across LearnedPolicySet on
// the parallel runner.
func RunLearned(cfg Config) (Learned, error) {
	specs := workload.OfflineSet()
	out := Learned{Policies: LearnedPolicySet}
	for _, spec := range specs {
		out.Benchmarks = append(out.Benchmarks, spec.Name)
	}
	var err error
	if out.Cells, err = runGrid(cfg, "learned", specs, LearnedPolicySet); err != nil {
		return Learned{}, err
	}
	return out, nil
}

// Render writes one miss-rate row per benchmark, one column per policy,
// plus a speedup-over-LRU summary line per policy.
func (l Learned) Render(w io.Writer) {
	fmt.Fprintln(w, "Learned-policy zoo: LLC miss rate by policy (Table 2 benchmarks)")
	byKey := renderMissRates(w, "benchmark", 12, l.Benchmarks, l.Policies, l.Cells)
	fmt.Fprintf(w, "  %-12s", "ipc vs lru")
	for _, p := range l.Policies {
		var sum float64
		n := 0
		for _, b := range l.Benchmarks {
			base := byKey[[2]string{b, "lru"}].IPC
			if base > 0 {
				sum += byKey[[2]string{b, p}].IPC / base
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(w, " %8.3fx", sum/float64(n))
		} else {
			fmt.Fprintf(w, " %9s", "-")
		}
	}
	fmt.Fprintln(w)
}
