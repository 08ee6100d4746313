package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls. Start and End are offsets from the tracer's origin; Parent is 0
// for a root span; Key names the cell or request the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span starting now and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, key string, parent int) int {
	return t.beginAt(name, key, parent, time.Now())
}

// beginAt opens a span with an explicit start, for open-loop requests that
// are timed from their scheduled send.
func (t *tracer) beginAt(name, key string, parent int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: int64(at.Sub(t.t0)), End: -1})
	return len(t.spans)
}

// end closes span id now and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns the span's duration. On a nil
// tracer it still times fn, so callers get the same number either way.
func (t *tracer) timed(name, key string, parent int, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	id := t.begin(name, key, parent)
	err := fn()
	return t.end(id), err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers.
func (t *tracer) selfTimes() map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// validate checks that every span is closed, lies inside its parent, and
// has a non-negative self time.
func (t *tracer) validate() error {
	if t == nil {
		return nil
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q is not closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q escapes its parent %d %q", s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
	for id, d := range t.selfTimes() {
		if d < 0 {
			return fmt.Errorf("span %d has negative self time %v", id, d)
		}
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
