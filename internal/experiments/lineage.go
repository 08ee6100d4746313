package experiments

import (
	"fmt"
	"io"

	"glider/internal/workload"
)

// Lineage: the evolution §2.1 describes, measured — from recency (LRU/LIP/
// DIP) through frequency (LFU/LRFU), re-reference prediction (SRRIP/DRRIP),
// pollution filters (EAF), sampler-trained dead-block/signature predictors
// (SDBP, SHiP++), perceptron-based reuse prediction (Perceptron, MPPPB),
// to learning from the optimal solution (Hawkeye, Glider).

// LineagePolicies is the ordering used in the study (roughly historical).
var LineagePolicies = []string{
	"lru", "lip", "dip", "lfu", "lrfu", "srrip", "drrip", "eaf",
	"sdbp", "ship++", "perceptron", "mpppb", "hawkeye", "glider",
}

// LineageRow is one benchmark's miss rate under every policy.
type LineageRow struct {
	Name      string
	MissRates map[string]float64
}

// Lineage is the full study.
type Lineage struct {
	Policies []string
	Rows     []LineageRow
	// AvgReduction[policy] is the mean miss reduction over LRU (%).
	AvgReduction map[string]float64
}

// RunLineage measures every policy on a representative benchmark triple
// (pointer-chasing, context-dependent, graph) on the parallel runner.
func RunLineage(cfg Config) (Lineage, error) {
	out := Lineage{Policies: LineagePolicies, AvgReduction: map[string]float64{}}
	benches := []string{"mcf", "omnetpp", "bfs"}
	specs := make([]workload.Spec, len(benches))
	for i, name := range benches {
		spec, err := workload.Lookup(name)
		if err != nil {
			return out, err
		}
		specs[i] = spec
	}
	cells, err := runGrid(cfg, "lineage", specs, LineagePolicies)
	if err != nil {
		return out, err
	}
	sums := map[string]float64{}
	for i, name := range benches {
		row := LineageRow{Name: name, MissRates: map[string]float64{}}
		var lru float64
		for j, pol := range LineagePolicies {
			mr := cells[i*len(LineagePolicies)+j].LLCMissRate
			row.MissRates[pol] = mr
			if pol == "lru" {
				lru = mr
			}
			if lru > 0 {
				sums[pol] += 100 * (lru - mr) / lru
			}
		}
		out.Rows = append(out.Rows, row)
	}
	for _, pol := range LineagePolicies {
		out.AvgReduction[pol] = sums[pol] / float64(len(benches))
	}
	return out, nil
}

// Render writes the study.
func (l Lineage) Render(w io.Writer) {
	fmt.Fprintln(w, "Lineage study: replacement-policy evolution (§2.1), LLC miss rates")
	fmt.Fprintf(w, "  %-12s", "policy")
	for _, r := range l.Rows {
		fmt.Fprintf(w, " %10s", r.Name)
	}
	fmt.Fprintf(w, " %12s\n", "avg red.")
	for _, pol := range l.Policies {
		fmt.Fprintf(w, "  %-12s", pol)
		for _, r := range l.Rows {
			fmt.Fprintf(w, " %9.1f%%", r.MissRates[pol]*100)
		}
		fmt.Fprintf(w, " %11.1f%%\n", l.AvgReduction[pol])
	}
}
