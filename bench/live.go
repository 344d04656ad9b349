package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	slicing "github.com/gossipkit/slicing"
)

// liveWorkload is a driven live cluster (VirtualClock) advanced one
// gossip period per cycle: fresh clusters built from the seed, each run
// warm cycles (timed for converge_s only; the cluster must converge
// within them) and then a timed window of cycles, as on the sims.
type liveWorkload struct {
	n, slices, shards int
	warm, cycles      int
	convergeN, endN   float64
	minCycles         int
}

// livePeriod is the virtual gossip period; in driven mode it costs no
// wall time, it only orders events.
const livePeriod = 10 * time.Millisecond

func (l liveWorkload) config(seed int64) (slicing.ClusterConfig, error) {
	part, err := slicing.EqualSlices(l.slices)
	if err != nil {
		return slicing.ClusterConfig{}, err
	}
	return slicing.ClusterConfig{
		N: l.n, Partition: part, ViewSize: 20,
		Protocol: slicing.LiveRanking, Period: livePeriod,
		AttrDist: uniformAttrs, Seed: seed,
		Clock: slicing.NewVirtualClock(), Shards: l.shards,
	}, nil
}

// liveTotals accumulates per-layer sums over every advanced cycle.
type liveTotals struct {
	newS, startMS, sdmMS []float64
	advanceNS            time.Duration
	msgs, dropped, alloc uint64
	lagP99               []float64
	queueMax             float64
}

func (l liveWorkload) run(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}}
	tailPct, _ := tailPercentile(l.minCycles) // fixed per workload, as on the sims
	h := newHeap()
	var tot liveTotals
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for trial := 0; time.Now().Before(deadline) || r.cycles < l.minCycles; trial++ {
		if err := l.trial(trialSeed(seed, trial), r, h, &tot, tr, false); err != nil {
			return nil, err
		}
	}
	r.memPeak = h.peak

	if tr == nil {
		return r, nil
	}
	// The poller reads the whole registry every millisecond, which slows
	// the Advances it watches: it runs on one more fresh cluster of its
	// own, so its cost stays out of every other figure.
	var probeTot liveTotals
	probe := &report{}
	if err := l.trial(trialSeed(seed, 0), probe, newHeap(), &probeTot, nil, true); err != nil {
		return nil, err
	}
	r.ops += probe.ops
	r.checks += probe.checks
	r.failures = append(r.failures, probe.failures...)

	ix := indexSpans(tr.snapshot())
	adv := ix.durationsMS("runtime.advance")
	c := float64(r.cycles)
	m := r.layer
	m["runtime.new_cluster_s"] = median(tot.newS)
	m["runtime.start_ms"] = median(tot.startMS)
	m["runtime.advance_ms_p50"] = median(adv)
	m["runtime.advance_ms_tail"] = percentile(adv, tailPct)
	m["runtime.ns_per_msg"] = float64(tot.advanceNS) / float64(tot.msgs)
	m["runtime.msgs_per_cycle"] = float64(tot.msgs) / c
	m["runtime.dropped_per_cycle"] = float64(tot.dropped) / c
	m["runtime.timer_lag_p99_s"] = median(tot.lagP99)
	m["runtime.queue_depth_max"] = probeTot.queueMax
	m["runtime.sdm_ms"] = median(tot.sdmMS)
	m["runtime.alloc_bytes_per_cycle"] = float64(tot.alloc) / c
	return r, nil
}

// trial builds one cluster, advances it and checks it. With poll set it
// attaches a registry and polls the queue depth during every timed
// Advance.
func (l liveWorkload) trial(seed int64, r *report, h *heap, tot *liveTotals, tr *tracer, poll bool) error {
	cfg, err := l.config(seed)
	if err != nil {
		return err
	}
	if tr != nil || poll {
		cfg.Telemetry = slicing.NewTelemetry()
	}
	var polled *slicing.Telemetry
	if poll {
		polled = cfg.Telemetry
	}
	runtime.GC()
	trace := tr.newID()
	t0 := time.Now()
	c, err := slicing.NewCluster(cfg)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := c.Start(); err != nil {
		return err
	}
	defer c.Stop()
	t2 := time.Now()
	tr.add(0, 0, trace, "runtime.new_cluster", t0, t1)
	tr.add(0, 0, trace, "runtime.start", t1, t2)
	r.setupS = append(r.setupS, t2.Sub(t0).Seconds())
	tot.newS = append(tot.newS, t1.Sub(t0).Seconds())
	tot.startMS = append(tot.startMS, float64(t2.Sub(t1))/float64(time.Millisecond))
	h.settle()

	bound := l.convergeN * float64(l.n)
	var toConverge time.Duration
	converged := false
	for i := 0; i < l.warm; i++ {
		m0 := c.MessageCounts()
		start := time.Now()
		if err := c.Advance(livePeriod); err != nil {
			return err
		}
		adv := time.Since(start)
		m1 := c.MessageCounts()
		r.ops++
		r.sent += m1.Total() - m0.Total() + m1.Dropped - m0.Dropped
		r.lost += m1.Dropped - m0.Dropped
		if !converged {
			toConverge += adv
			converged = c.SDM() <= bound
		}
	}

	var advanced time.Duration
	var sdm float64
	for i := 0; i < l.cycles; i++ {
		m0 := c.MessageCounts()
		a0 := h.allocated()
		start := time.Now()
		stopSampling := sampleQueueDepth(polled, &tot.queueMax)
		err := c.Advance(livePeriod)
		stopSampling()
		if err != nil {
			return err
		}
		mid := time.Now()
		sdm = c.SDM()
		end := time.Now()
		a1 := h.allocated()
		m1 := c.MessageCounts()
		r.ops++
		if tr != nil {
			cycle := tr.newID()
			tr.add(0, cycle, trace, "runtime.advance", start, mid)
			tr.add(0, cycle, trace, "runtime.sdm", mid, end)
			tr.add(cycle, 0, trace, "runtime.cycle", start, end)
		}
		adv := mid.Sub(start)
		r.cycles++
		advanced += adv
		r.latMS = append(r.latMS, float64(adv)/float64(time.Millisecond))
		delivered, dropped := m1.Total()-m0.Total(), m1.Dropped-m0.Dropped
		tot.advanceNS += adv
		tot.msgs += delivered
		tot.dropped += dropped
		tot.alloc += a1 - a0
		tot.sdmMS = append(tot.sdmMS, float64(end.Sub(mid))/float64(time.Millisecond))
		r.sent += delivered + dropped
		r.lost += dropped
	}
	h.settle()
	r.timedCycles += float64(l.cycles)
	r.timedS += advanced.Seconds()
	r.convergeS = append(r.convergeS, toConverge.Seconds())
	r.sdmFinal = append(r.sdmFinal, sdm)
	if tr != nil {
		tot.lagP99 = append(tot.lagP99, timerLagP99(cfg.Telemetry))
	}

	mc := c.MessageCounts()
	r.check(converged, "seed %d: SDM never reached %.3g·N in %d cycles", seed, l.convergeN, l.warm)
	r.check(len(c.Nodes()) == l.n, "seed %d: %d live nodes, want %d", seed, len(c.Nodes()), l.n)
	r.check(mc.ViewRequests == mc.ViewReplies && mc.Dropped == 0,
		"seed %d: static run delivered %d view requests, %d replies, %d dropped",
		seed, mc.ViewRequests, mc.ViewReplies, mc.Dropped)
	r.check(sdm <= l.endN*float64(l.n), "seed %d: final SDM %.0f above %.3g·N", seed, sdm, l.endN)
	q, err := slicing.NewClusterQuerier(c, slicing.RankingServingCalibration)
	if err != nil {
		return err
	}
	t3 := time.Now()
	checkAnswers(q, c.Partition(), rand.New(rand.NewSource(seed)), r)
	tr.add(0, 0, trace, "runtime.check", t3, time.Now())
	return nil
}

// sampleQueueDepth polls the scheduler's queue depth every millisecond
// into peak until the returned stop function is called; with no
// registry it does nothing.
func sampleQueueDepth(reg *slicing.Telemetry, peak *float64) (stop func()) {
	if reg == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			*peak = max(*peak, queueDepth(reg))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// queueDepth sums the scheduler's per-shard queue-depth gauges.
func queueDepth(reg *slicing.Telemetry) float64 {
	var depth float64
	for k, v := range reg.Snapshot() {
		if d, ok := v.(float64); ok && strings.HasPrefix(k, "slicing_runtime_queue_depth") {
			depth += d
		}
	}
	return depth
}

// timerLagP99 reads the 99th percentile of the scheduler's timer-lag
// histogram, at the upper bound of the bucket that holds it.
func timerLagP99(reg *slicing.Telemetry) float64 {
	h, _ := reg.Snapshot()["slicing_runtime_timer_lag_seconds"].(map[string]any)
	count, _ := h["count"].(uint64)
	buckets, _ := h["buckets"].(map[string]uint64)
	return histogramQuantile(count, buckets, 0.99)
}

// histogramQuantile returns the upper bound of the first cumulative
// bucket holding at least q of count observations, capped at the last
// finite bound (a quantile in the overflow bucket is at least that).
func histogramQuantile(count uint64, buckets map[string]uint64, q float64) float64 {
	type bucket struct {
		le  float64
		cum uint64
	}
	bs := make([]bucket, 0, len(buckets))
	for k, v := range buckets {
		le := math.Inf(1)
		if k != "+Inf" {
			f, err := strconv.ParseFloat(k, 64)
			if err != nil {
				panic(fmt.Sprintf("histogram bucket %q: %v", k, err))
			}
			le = f
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	want := uint64(math.Ceil(q * float64(count)))
	last := 0.0
	for _, b := range bs {
		if math.IsInf(b.le, 1) {
			break
		}
		last = b.le
		if b.cum >= want {
			break
		}
	}
	return last
}
