package main

import (
	"testing"
	"time"
)

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(0, 0)
	ms := time.Millisecond
	for _, c := range []struct {
		name             string
		wake, sent, done time.Duration // after due
		latency, late    time.Duration
	}{
		// The connection was busy when the operation fell due: the wait
		// before sending is the system's and counts.
		{"backlogged", 0, 5 * ms, 6 * ms, 6 * ms, 5 * ms},
		// The generator overslept by its timer's slack: that is its own.
		{"overslept", ms, ms, 3 * ms, 2 * ms, ms},
		{"overslept less", ms / 4, ms / 4, 3 * ms, 3*ms - ms/4, ms / 4},
		// Woken 4ms late: the CPU was busy, and all but the slack counts.
		{"starved", 4 * ms, 4 * ms, 5 * ms, 4 * ms, 4 * ms},
	} {
		sh := shot{due: due, origin: originOf(due, due.Add(c.wake)), sent: due.Add(c.sent), done: due.Add(c.done)}
		if sh.latency() != c.latency || sh.late() != c.late {
			t.Errorf("%s shot: latency %v late %v, want %v %v", c.name, sh.latency(), sh.late(), c.latency, c.late)
		}
	}
}

func TestOpenLoopChargesBacklogToLaterOperations(t *testing.T) {
	// One connection, an operation due every millisecond, each taking at
	// least 2ms: the schedule runs away from the server, and the i-th
	// operation waits behind all earlier ones.
	const n = 20
	service := 2 * time.Millisecond
	start := time.Now()
	shots := openLoop(start, 1000, n, 1, func(int) { time.Sleep(service) })
	for i, sh := range shots {
		if want := start.Add(time.Duration(i) * time.Millisecond); !sh.due.Equal(want) {
			t.Fatalf("op %d due at %v, want %v", i, sh.due.Sub(start), want.Sub(start))
		}
		if sh.sent.Before(sh.due) || sh.done.Sub(sh.sent) < service {
			t.Errorf("op %d sent %v before due or served in %v", i, sh.sent.Sub(sh.due), sh.done.Sub(sh.sent))
		}
		if i == 0 {
			continue
		}
		if !sh.origin.Equal(sh.due) {
			t.Errorf("op %d was behind schedule but timed from %v after due", i, sh.origin.Sub(sh.due))
		}
		// done_i ≥ start + (i+1)·service, due_i = start + i·1ms.
		if min := time.Duration(i+2) * time.Millisecond; sh.latency() < min {
			t.Errorf("op %d latency %v, want ≥ %v", i, sh.latency(), min)
		}
	}
}

func TestOpenLoopWaitsForDueTime(t *testing.T) {
	start := time.Now()
	shots := openLoop(start, 200, 5, 2, func(int) {})
	for i, sh := range shots {
		if sh.origin.Before(sh.due) || sh.sent.Before(sh.origin) || sh.done.Before(sh.sent) {
			t.Errorf("op %d out of order: due %v origin %v sent %v done %v", i,
				sh.due.Sub(start), sh.origin.Sub(start), sh.sent.Sub(start), sh.done.Sub(start))
		}
	}
}
