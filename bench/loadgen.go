package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// shot is one scheduled operation of an open loop. origin is when the
// operation became due to the system: its due time, or, when the
// generator slept toward it and its timer fired late, the moment it
// fired, but never more than timerSlack after the due time. The runtime
// wakes sleepers at up to a millisecond's granularity on an idle box;
// that slack is the generator's, reported as late, and not charged to
// the system. A later wake-up is the CPU busy elsewhere, with the
// system under test, and counts.
type shot struct {
	due, origin, sent, done time.Time
}

// timerSlack is the oversleep excused to the generator.
const timerSlack = time.Millisecond

// originOf is when an operation due at due, whose generator woke at
// wake, became the system's: the wake-up, capped at timerSlack late.
func originOf(due, wake time.Time) time.Time {
	if limit := due.Add(timerSlack); wake.After(limit) {
		return limit
	}
	return wake
}

// latency is the operation's time from when it was due, so that a stall
// also charges the wait it imposes on every operation scheduled behind
// it: an operation whose connection was still busy when it fell due is
// timed from its due time.
func (s shot) latency() time.Duration { return s.done.Sub(s.origin) }

// late is how far behind its schedule the generator sent the operation.
func (s shot) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends total operations at a fixed rate from start: the i-th
// is due at start + i/rate whether or not earlier ones have finished.
// At most workers operations are in flight (one per connection); when
// all are busy, due operations queue and their latency grows. send
// performs operation i; openLoop returns once every operation finished.
func openLoop(start time.Time, rate float64, total, workers int, send func(i int)) []shot {
	shots := make([]shot, total)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				origin := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					origin = originOf(due, time.Now())
				}
				sent := time.Now()
				send(i)
				shots[i] = shot{due: due, origin: origin, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	return shots
}
