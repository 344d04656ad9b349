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

// span is one timed interval at a layer boundary. Spans of one unit of
// work (a trial, a cycle, a query) share Trace; Parent is the span that
// caused this one (0 for a root). Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that returns 0, so workload
// code calls it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, for a parent whose children are recorded
// before it ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *tracer) add(id, parent, trace uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// spanIndex groups spans by name and by parent for aggregation.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of every span called name, in ms.
func (ix spanIndex) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

// selfTimes returns, for every span called name, its self time: the
// span's duration minus the part of it that its children cover.
func (ix spanIndex) selfTimes(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.byName[name] {
		out = append(out, selfTime(s, ix.children[s.ID]))
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals clipped to it. Overlapping children (concurrent work under
// one parent) are counted once, so self time never goes negative.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - time.Duration(covered)
}
