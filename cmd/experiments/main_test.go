package main

import (
	"reflect"
	"strings"
	"testing"

	"glider/internal/experiments"
)

// TestAllNamesDispatch checks that "all" is derived from the dispatch
// table: every name it runs resolves to a table entry, the fig12 alias and
// the surrogate study stay out, and the run order is the historical one.
func TestAllNamesDispatch(t *testing.T) {
	all := names(true)
	want := []string{"table1", "table2", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "fig13", "fig14", "fig15",
		"table3", "table4", "ablations", "extension", "lineage", "zoo", "learned"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("all = %v, want %v", all, want)
	}
	entries := map[string]bool{}
	for _, e := range table {
		if entries[e.name] {
			t.Fatalf("duplicate table entry %q", e.name)
		}
		entries[e.name] = true
	}
	for _, name := range all {
		if !entries[name] {
			t.Errorf("all runs %q, which has no table entry", name)
		}
	}
	for _, name := range []string{"fig12", "estimate"} {
		if !entries[name] {
			t.Errorf("%q missing from the table", name)
		}
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	err := run("bogus", experiments.Quick(), inputs{}, false)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
		t.Fatalf("run(bogus) = %v, want an unknown-experiment error", err)
	}
}
