package experiments

import (
	"context"
	"fmt"
	"io"

	"glider/internal/cpu"
	"glider/internal/simrunner"
	"glider/internal/workload"
)

// ------------------------------------------------------ Single-core grid
//
// Figures 11/12, the scenario zoo, the learned sweep, the lineage study and
// the configuration sweep are all one grid: every policy over every
// workload on the single-core hierarchy with full timing. They share one
// cell type, one job builder and one runner.

// GridCell is one (workload, policy) single-core simulation outcome.
type GridCell struct {
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy"`
	IPC         float64 `json:"ipc"`
	LLCMissRate float64 `json:"llc_miss_rate"`
}

// gridJob simulates one cell with cpu.SingleCore under job key
// <prefix>/<pol>.
func gridJob(cfg Config, prefix string, spec workload.Spec, pol string) simrunner.Job[GridCell] {
	key := simrunner.Key(prefix, pol)
	return simrunner.Job[GridCell]{
		Key: key,
		Run: func(ctx context.Context) (GridCell, error) {
			res, err := cpu.SingleCore(ctx, spec, pol, cfg.Accesses, cfg.Seed)
			if err != nil {
				return GridCell{}, fmt.Errorf("%s: %w", key, err)
			}
			return GridCell{Workload: spec.Name, Policy: pol, IPC: res.IPC, LLCMissRate: res.LLC.MissRate()}, nil
		},
	}
}

// runGrid simulates every (workload, policy) cell on the parallel runner,
// one job per cell under key <study>/<workload>/<policy>, and returns the
// cells workload-major in input order.
func runGrid(cfg Config, study string, specs []workload.Spec, pols []string) ([]GridCell, error) {
	jobs := make([]simrunner.Job[GridCell], 0, len(specs)*len(pols))
	for _, spec := range specs {
		for _, pol := range pols {
			jobs = append(jobs, gridJob(cfg, simrunner.Key(study, spec.Name), spec, pol))
		}
	}
	return simrunner.Values(simrunner.Run(context.Background(), cfg.runnerOpts(), jobs))
}

// renderMissRates writes a miss-rate table, one row per workload and one
// column per policy, headed by label in a first column width characters
// wide. It returns the cells keyed by {workload, policy}.
func renderMissRates(w io.Writer, label string, width int, workloads, pols []string, cells []GridCell) map[[2]string]GridCell {
	fmt.Fprintf(w, "  %-*s", width, label)
	for _, p := range pols {
		fmt.Fprintf(w, " %9s", p)
	}
	fmt.Fprintln(w)
	byKey := make(map[[2]string]GridCell, len(cells))
	for _, c := range cells {
		byKey[[2]string{c.Workload, c.Policy}] = c
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-*s", width, wl)
		for _, p := range pols {
			fmt.Fprintf(w, " %8.2f%%", 100*byKey[[2]string{wl, p}].LLCMissRate)
		}
		fmt.Fprintln(w)
	}
	return byKey
}
