package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Report is the aggregated view of a JSONL event stream that cmd/obsreport
// renders: the final metric snapshot, per-PC outcome tables, per-policy job
// latency, and offline training curves.
type Report struct {
	// Metrics holds "metric" snapshot events keyed by metric name.
	Metrics []MetricLine
	// PCTables maps table name → entries, sorted by accesses descending.
	PCTables map[string][]PCEntry
	// Jobs groups simrunner job completions by the final path segment of
	// the job key — the policy name under the repo's Key conventions.
	Jobs []JobGroup
	// Epochs holds offline per-epoch training records, in epoch order.
	Epochs []EpochLine
	// EventCounts tallies every (component, event) pair seen.
	EventCounts map[string]int
}

// MetricLine is one metric from the snapshot.
type MetricLine struct {
	Kind  string
	Name  string
	Value uint64  // counters
	Count uint64  // histograms
	Sum   float64 // histograms
}

// JobGroup aggregates simulation jobs sharing a policy (key suffix).
type JobGroup struct {
	Policy       string
	Jobs, Failed int
	TotalSec     float64
	MaxSec       float64
}

// MeanSec returns the mean job latency in seconds.
func (g JobGroup) MeanSec() float64 {
	if g.Jobs == 0 {
		return 0
	}
	return g.TotalSec / float64(g.Jobs)
}

// EpochLine is one offline training epoch.
type EpochLine struct {
	Model    string
	Epoch    int
	Loss     float64
	Accuracy float64
	Seconds  float64
}

// Aggregate folds an event stream into a Report.
func Aggregate(events []Event) *Report {
	rep := &Report{
		PCTables:    make(map[string][]PCEntry),
		EventCounts: make(map[string]int),
	}
	jobs := make(map[string]*JobGroup)
	for _, e := range events {
		rep.EventCounts[e.Component+"/"+e.Event]++
		switch {
		case e.Component == "obs" && e.Event == "metric":
			rep.Metrics = append(rep.Metrics, MetricLine{
				Kind:  str(e.Fields["kind"]),
				Name:  str(e.Fields["name"]),
				Value: num(e.Fields["value"]),
				Count: num(e.Fields["count"]),
				Sum:   f64(e.Fields["sum"]),
			})
		case e.Component == "obs" && e.Event == "pc":
			table := str(e.Fields["table"])
			pc, _ := strconv.ParseUint(strings.TrimPrefix(str(e.Fields["pc"]), "0x"), 16, 64)
			rep.PCTables[table] = append(rep.PCTables[table], PCEntry{
				PC: pc,
				PCOutcome: PCOutcome{
					Accesses:      num(e.Fields["accesses"]),
					Hits:          num(e.Fields["hits"]),
					Misses:        num(e.Fields["misses"]),
					Insertions:    num(e.Fields["insertions"]),
					EvictedReused: num(e.Fields["evicted_reused"]),
					EvictedDead:   num(e.Fields["evicted_dead"]),
				},
			})
		case e.Component == "simrunner" && e.Event == "job":
			policy := policyFromKey(str(e.Fields["key"]))
			g, ok := jobs[policy]
			if !ok {
				g = &JobGroup{Policy: policy}
				jobs[policy] = g
			}
			g.Jobs++
			sec := f64(e.Fields["seconds"])
			g.TotalSec += sec
			if sec > g.MaxSec {
				g.MaxSec = sec
			}
			if !boolean(e.Fields["ok"]) {
				g.Failed++
			}
		case e.Component == "offline" && e.Event == "epoch":
			rep.Epochs = append(rep.Epochs, EpochLine{
				Model:    str(e.Fields["model"]),
				Epoch:    int(num(e.Fields["epoch"])),
				Loss:     f64(e.Fields["loss"]),
				Accuracy: f64(e.Fields["accuracy"]),
				Seconds:  f64(e.Fields["seconds"]),
			})
		}
	}
	sort.Slice(rep.Metrics, func(i, j int) bool { return rep.Metrics[i].Name < rep.Metrics[j].Name })
	for _, entries := range rep.PCTables {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Accesses != entries[j].Accesses {
				return entries[i].Accesses > entries[j].Accesses
			}
			return entries[i].PC < entries[j].PC
		})
	}
	for _, g := range jobs {
		rep.Jobs = append(rep.Jobs, *g)
	}
	sort.Slice(rep.Jobs, func(i, j int) bool { return rep.Jobs[i].Policy < rep.Jobs[j].Policy })
	sort.SliceStable(rep.Epochs, func(i, j int) bool {
		if rep.Epochs[i].Model != rep.Epochs[j].Model {
			return rep.Epochs[i].Model < rep.Epochs[j].Model
		}
		return rep.Epochs[i].Epoch < rep.Epochs[j].Epoch
	})
	return rep
}

// policyFromKey extracts the grouping label from a simrunner job key: the
// last "/"-separated segment that is neither a parameter ("seed=3") nor a
// bare index ("7"), so Key("<experiment>", ..., "<policy>") and keys with
// trailing parameters group alike. Falls back to the whole key.
func policyFromKey(key string) string {
	segs := strings.Split(key, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if s == "" || strings.ContainsRune(s, '=') {
			continue
		}
		if _, err := strconv.Atoi(s); err == nil {
			continue
		}
		return s
	}
	return key
}

// Render writes the report. topN bounds per-PC rows per table (<= 0: 20).
func (rep *Report) Render(w io.Writer, topN int) {
	if topN <= 0 {
		topN = 20
	}
	if len(rep.Metrics) > 0 {
		fmt.Fprintf(w, "== metrics ==\n")
		for _, m := range rep.Metrics {
			switch m.Kind {
			case "histogram":
				mean := 0.0
				if m.Count > 0 {
					mean = m.Sum / float64(m.Count)
				}
				fmt.Fprintf(w, "%-46s count %10d  mean %12.6g\n", m.Name, m.Count, mean)
			case "counter":
				fmt.Fprintf(w, "%-46s %12d\n", m.Name, m.Value)
			default:
				fmt.Fprintf(w, "%-46s (%s)\n", m.Name, m.Kind)
			}
		}
	}
	tables := make([]string, 0, len(rep.PCTables))
	for name := range rep.PCTables {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	for _, name := range tables {
		entries := rep.PCTables[name]
		fmt.Fprintf(w, "\n== per-PC: %s (%d PCs, top %d by accesses) ==\n", name, len(entries), min(topN, len(entries)))
		fmt.Fprintf(w, "%-18s %10s %8s %10s %10s %8s\n", "pc", "accesses", "hit%", "inserts", "evicted", "dead%")
		for i, e := range entries {
			if i >= topN {
				break
			}
			fmt.Fprintf(w, "%#-18x %10d %8.1f %10d %10d %8.1f\n",
				e.PC, e.Accesses, e.HitRate()*100, e.Insertions, e.EvictedReused+e.EvictedDead, e.DeadFraction()*100)
		}
	}
	if len(rep.Jobs) > 0 {
		fmt.Fprintf(w, "\n== jobs by policy ==\n")
		fmt.Fprintf(w, "%-16s %6s %6s %10s %10s %10s\n", "policy", "jobs", "fail", "mean s", "max s", "total s")
		for _, g := range rep.Jobs {
			fmt.Fprintf(w, "%-16s %6d %6d %10.3f %10.3f %10.3f\n", g.Policy, g.Jobs, g.Failed, g.MeanSec(), g.MaxSec, g.TotalSec)
		}
	}
	if len(rep.Epochs) > 0 {
		fmt.Fprintf(w, "\n== training epochs ==\n")
		fmt.Fprintf(w, "%-16s %6s %10s %10s %10s\n", "model", "epoch", "loss", "acc%", "seconds")
		for _, e := range rep.Epochs {
			fmt.Fprintf(w, "%-16s %6d %10.4f %10.1f %10.3f\n", e.Model, e.Epoch, e.Loss, e.Accuracy*100, e.Seconds)
		}
	}
	if len(rep.EventCounts) > 0 {
		keys := make([]string, 0, len(rep.EventCounts))
		for k := range rep.EventCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "\n== event stream ==\n")
		for _, k := range keys {
			fmt.Fprintf(w, "%-46s %10d\n", k, rep.EventCounts[k])
		}
	}
}

// JSON field accessors tolerant of the any-typed values encoding/json
// produces (float64 for all numbers).

func str(v any) string {
	s, _ := v.(string)
	return s
}

func f64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return 0
}

func num(v any) uint64 {
	switch x := v.(type) {
	case float64:
		if x < 0 {
			return 0
		}
		return uint64(x)
	case int:
		if x < 0 {
			return 0
		}
		return uint64(x)
	case uint64:
		return x
	}
	return 0
}

func boolean(v any) bool {
	b, ok := v.(bool)
	return ok && b
}
