package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestTinyRuns runs every workload at tiny size, untraced and traced: each
// must complete, pass its own checks, and print every metric of its mode
// with the unit BENCHMARK.json gives it.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"sweep", "multicore", "serve", "train"} {
		for _, traced := range []bool{false, true} {
			res, err := execute(options{workload: w, seed: DefaultSeed, seconds: 0.3, trace: traced, tiny: true, build: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestMetricNames pins the name and unit alphabets and that every
// per-layer metric says what it should move.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer() {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it moves", m.Name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: every listed
// workload is implemented, the same metrics with the same units and
// directions, bounds within the contract, and setup_s holding the largest
// bound.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, program prints %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		p := endToEnd[i]
		if m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("end-to-end %d: %+v vs program %+v", i, m, p)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first and hold the largest bound")
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics listed, program prints %d", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		if m.Name != pl[i].Name || m.Unit != pl[i].Unit || m.Better != pl[i].Better {
			t.Errorf("per-layer %d: %+v vs program %+v", i, m, pl[i])
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

// TestDigestsRecorded requires a recorded default-seed digest per workload.
func TestDigestsRecorded(t *testing.T) {
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		if len(recorded[w]) != 16 {
			t.Errorf("no recorded digest for %s", w)
		}
	}
}

// TestSpanSelfTimes checks self time against hand-computed intervals,
// including overlapping children, and that validate rejects a child that
// escapes its parent.
func TestSpanSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}}
	self := tr.selfTimes()
	for id, want := range map[int]time.Duration{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	if err := tr.validate(); err != nil {
		t.Errorf("valid spans rejected: %v", err)
	}
	tr.spans = append(tr.spans, span{ID: 5, Parent: 4, Name: "late", Start: 18, End: 25})
	if err := tr.validate(); err == nil {
		t.Errorf("a child escaping its parent was accepted")
	}

	live := newTracer()
	outer := live.begin("outer", "k", 0)
	if _, err := live.timed("inner", "k", outer, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	live.end(outer)
	if err := live.validate(); err != nil {
		t.Errorf("recorded spans do not nest: %v", err)
	}
}
