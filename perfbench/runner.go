package main

import "glider/internal/obs"

// jobEvent is one simrunner job as its event sink reported it.
type jobEvent struct {
	seconds float64
	ok      bool
}

// runnerEvents splits a simrunner event stream into its jobs and the
// summed busy capacity (workers × wall seconds) of its batches.
func runnerEvents(sink *obs.RingSink) (jobs []jobEvent, capacity float64) {
	for _, e := range sink.Events() {
		if e.Component != "simrunner" {
			continue
		}
		switch e.Event {
		case "job":
			sec, _ := e.Fields["seconds"].(float64)
			ok, _ := e.Fields["ok"].(bool)
			jobs = append(jobs, jobEvent{sec, ok})
		case "batch":
			w, _ := e.Fields["workers"].(int)
			sec, _ := e.Fields["seconds"].(float64)
			capacity += float64(w) * sec
		}
	}
	return jobs, capacity
}

// runnerLayers reports the simrunner per-layer metrics: job latency median
// and maximum, and the share of worker capacity that sat idle — stragglers
// and phase barriers raise it.
func runnerLayers(m map[string]float64, jobs []jobEvent, capacity float64) {
	var secs []float64
	busy := 0.0
	for _, j := range jobs {
		secs = append(secs, j.seconds)
		busy += j.seconds
	}
	m["simrunner.job_ms_p50"] = 1000 * median(secs)
	m["simrunner.job_ms_max"] = 1000 * quantile(secs, 1)
	if capacity > 0 {
		m["simrunner.idle_frac"] = 1 - busy/capacity
	}
}

// jobLatencies returns the jobs' latencies and success flags.
func jobLatencies(jobs []jobEvent) (lat []float64, ok []bool) {
	for _, j := range jobs {
		lat, ok = append(lat, j.seconds), append(ok, j.ok)
	}
	return lat, ok
}
