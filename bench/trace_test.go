package main

import (
	"testing"
	"time"
)

func sp(id, parent uint64, start, end int64) span {
	return span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	parent := sp(1, 0, 100, 200)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"back to back", []span{sp(2, 1, 100, 130), sp(3, 1, 130, 180)}, 20},
		{"disjoint", []span{sp(2, 1, 110, 120), sp(3, 1, 150, 170)}, 70},
		{"overlapping counted once", []span{sp(2, 1, 110, 150), sp(3, 1, 140, 160)}, 50},
		{"nested inside a sibling", []span{sp(2, 1, 110, 190), sp(3, 1, 120, 130)}, 20},
		{"clipped to the parent", []span{sp(2, 1, 50, 120), sp(3, 1, 190, 250)}, 70},
		{"outside the parent", []span{sp(2, 1, 10, 90), sp(3, 1, 200, 300)}, 100},
		{"covering everything", []span{sp(2, 1, 0, 300)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerIndexesSelfTimesByName(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	step := tr.newID()
	tr.add(0, step, step, "phase", at(0), at(3))
	tr.add(0, step, step, "phase", at(3), at(9))
	tr.add(step, 0, step, "step", at(0), at(10))
	ix := indexSpans(tr.snapshot())
	if got := ix.durationsMS("phase"); len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Errorf("phase durations %v, want [3 6]", got)
	}
	if got := ix.selfTimes("step"); len(got) != 1 || got[0] != time.Millisecond {
		t.Errorf("step self time %v, want [1ms]", got)
	}
	var none *tracer // the untraced pass
	if none.newID() != 0 || none.add(0, 0, 0, "x", t0, t0) != 0 || none.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}
