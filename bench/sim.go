package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	slicing "github.com/gossipkit/slicing"
)

// simWorkload is a cycle-simulator workload: fresh engines built from
// the seed, each stepped a fixed number of cycles.
type simWorkload struct {
	n, slices int
	protocol  string // "ordering" or "ranking"
	churn     float64
	workers   int
	// warm cycles open each fresh engine untimed but for converge_s;
	// the engine must converge within them. The next cycles are the
	// timed window every rate and per-layer figure describes; the SDM
	// checks and sdm_final are taken after the last of them.
	warm, cycles int
	// convergeN and endN bound the SDM, in units of N: converge_s ends
	// at the first cycle at or below convergeN·N, and the run fails its
	// check unless the last cycle ends at or below endN·N.
	convergeN, endN float64
	// minCycles guarantees latency_tail_ms its sample count.
	minCycles int
}

var uniformAttrs = slicing.UniformDist{Lo: 0, Hi: 1000}

func (s simWorkload) config(seed int64) slicing.SimConfig {
	cfg := slicing.SimConfig{
		N: s.n, Slices: s.slices, ViewSize: 20,
		AttrDist: uniformAttrs, Seed: seed, Workers: s.workers,
	}
	if s.protocol == "ordering" {
		cfg.Protocol, cfg.Policy = slicing.Ordering, slicing.ModJK
	} else {
		cfg.Protocol, cfg.Estimator = slicing.Ranking, slicing.CounterEstimator
	}
	if s.churn > 0 {
		cfg.Schedule = slicing.BurstChurn{Rate: s.churn, Until: math.MaxInt}
		cfg.Pattern = slicing.UniformChurn{Dist: uniformAttrs}
	}
	return cfg
}

// simTotals accumulates per-layer sums over every stepped cycle.
type simTotals struct {
	nodeCycles                float64 // Σ live nodes over cycles
	membership, protocol      time.Duration
	churn, measure            time.Duration
	alloc                     uint64
	viewReq, swapReq, rankUpd uint64
	dropped                   uint64
	swapped, swapAttempts     uint64
	bytesPerNode              []float64
}

func (s simWorkload) run(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}}
	// The tail percentile is fixed by the guaranteed sample count, so a
	// faster build that steps more cycles still reports the same one.
	tailPct, _ := tailPercentile(s.minCycles)
	h := newHeap()
	var tot simTotals
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for trial := 0; time.Now().Before(deadline) || r.cycles < s.minCycles; trial++ {
		if err := s.trial(trialSeed(seed, trial), r, h, &tot, tr); err != nil {
			return nil, err
		}
	}
	r.memPeak = h.peak

	if tr == nil {
		return r, nil
	}
	ix := indexSpans(tr.snapshot())
	steps := ix.durationsMS("sim.step")
	var self, stepTotal float64
	for i, st := range ix.selfTimes("sim.step") {
		self += float64(st)
		stepTotal += steps[i] * float64(time.Millisecond)
	}
	c := float64(r.cycles)
	perNode := func(d time.Duration) float64 { return float64(d) / tot.nodeCycles }
	l := r.layer
	l["sim.new_s"] = median(r.setupS)
	l["sim.step_ms_p50"] = median(steps)
	l["sim.step_ms_tail"] = percentile(steps, tailPct)
	l["sim.step_self_pct"] = 100 * self / stepTotal
	l["sim.membership_ns_per_node"] = perNode(tot.membership)
	l["sim.protocol_ns_per_node"] = perNode(tot.protocol)
	l["sim.churn_ns_per_cycle"] = float64(tot.churn) / c
	l["sim.measure_ns_per_node"] = perNode(tot.measure)
	l["sim.alloc_bytes_per_cycle"] = float64(tot.alloc) / c
	l["sim.bytes_per_node"] = median(tot.bytesPerNode)
	l["sim.view_exchanges_per_cycle"] = float64(tot.viewReq) / c
	l["sim.swaps_per_cycle"] = float64(tot.swapReq) / c
	l["sim.rank_updates_per_cycle"] = float64(tot.rankUpd) / c
	l["sim.dropped_per_cycle"] = float64(tot.dropped) / c
	if tot.swapAttempts > 0 {
		l["ordering.swap_success_ratio"] = float64(tot.swapped) / float64(2*tot.swapAttempts)
	}
	return r, nil
}

// trial builds one engine, steps it s.cycles times and checks it.
func (s simWorkload) trial(seed int64, r *report, h *heap, tot *simTotals, tr *tracer) error {
	cfg := s.config(seed)
	if tr != nil {
		cfg.Telemetry = slicing.NewTelemetry()
	}
	runtime.GC() // the previous trial's engine must not count in this one's heap
	trace := tr.newID()
	t0 := time.Now()
	e, err := slicing.NewSimulation(cfg)
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.add(0, 0, trace, "sim.new", t0, t1)
	r.setupS = append(r.setupS, t1.Sub(t0).Seconds())
	h.settle()

	bound := s.convergeN * float64(s.n)
	var toConverge time.Duration
	converged := false
	for c := 0; c < s.warm; c++ {
		p0, d0 := e.Phases(), e.Delivered
		start := time.Now()
		e.Step()
		wall := time.Since(start)
		p1, d1 := e.Phases(), e.Delivered
		r.ops++
		r.sent += d1.Total() - d0.Total() + d1.Dropped - d0.Dropped
		r.lost += d1.Dropped - d0.Dropped
		if !converged {
			// The measure phase is the oracle SDM scan, not protocol work.
			toConverge += wall - time.Duration(p1.MeasureNS-p0.MeasureNS)
			last, _ := e.SDM().Last()
			converged = last.Value <= bound
		}
	}

	st0 := e.OrderingStats()
	var stepped time.Duration
	for c := 0; c < s.cycles; c++ {
		p0, d0 := e.Phases(), e.Delivered
		a0 := h.allocated()
		nodes := e.N()
		start := time.Now()
		e.Step()
		end := time.Now()
		a1 := h.allocated()
		p1, d1 := e.Phases(), e.Delivered
		r.ops++

		dChurn := time.Duration(p1.ChurnNS - p0.ChurnNS)
		dMem := time.Duration(p1.MembershipNS - p0.MembershipNS)
		dProto := time.Duration(p1.ProtocolNS - p0.ProtocolNS)
		dMeasure := time.Duration(p1.MeasureNS - p0.MeasureNS)
		if tr != nil {
			// The engine reports phase durations, not instants; the
			// phases run back to back in this order inside Step.
			step := tr.newID()
			at := start
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"sim.churn", dChurn}, {"sim.membership", dMem}, {"sim.protocol", dProto}, {"sim.measure", dMeasure}} {
				tr.add(0, step, trace, ph.name, at, at.Add(ph.d))
				at = at.Add(ph.d)
			}
			tr.add(step, 0, trace, "sim.step", start, end)
		}

		wall := end.Sub(start)
		r.cycles++
		stepped += wall
		r.latMS = append(r.latMS, float64(wall)/float64(time.Millisecond))
		tot.nodeCycles += float64(nodes)
		tot.churn += dChurn
		tot.membership += dMem
		tot.protocol += dProto
		tot.measure += dMeasure
		tot.alloc += a1 - a0
		tot.viewReq += d1.ViewRequests - d0.ViewRequests
		tot.swapReq += d1.SwapRequests - d0.SwapRequests
		tot.rankUpd += d1.RankUpdates - d0.RankUpdates
		tot.dropped += d1.Dropped - d0.Dropped
		r.sent += d1.Total() - d0.Total() + d1.Dropped - d0.Dropped
		r.lost += d1.Dropped - d0.Dropped
	}
	h.settle()
	last, _ := e.SDM().Last()
	r.timedCycles += float64(s.cycles)
	r.timedS += stepped.Seconds()
	r.convergeS = append(r.convergeS, toConverge.Seconds())
	r.sdmFinal = append(r.sdmFinal, last.Value)
	tot.bytesPerNode = append(tot.bytesPerNode, e.MemReport().BytesPerNode)
	if s.protocol == "ordering" {
		st := e.OrderingStats()
		tot.swapped += st.Swapped - st0.Swapped
		tot.swapAttempts += st.ReqSent + st.SwapAbandonedAtSender - st0.ReqSent - st0.SwapAbandonedAtSender
	}

	r.check(converged, "seed %d: SDM never reached %.3g·N in %d cycles", seed, s.convergeN, s.warm)
	r.check(e.N() == s.n, "seed %d: population %d after %d cycles, want %d", seed, e.N(), s.warm+s.cycles, s.n)
	if s.churn == 0 {
		d := e.Delivered
		r.check(d.ViewRequests == d.ViewReplies && d.Dropped == 0,
			"seed %d: static run delivered %d view requests, %d replies, %d dropped",
			seed, d.ViewRequests, d.ViewReplies, d.Dropped)
	}
	r.check(last.Value <= s.endN*float64(s.n), "seed %d: final SDM %.0f above %.3g·N", seed, last.Value, s.endN)
	cal := slicing.RankingServingCalibration
	if s.protocol == "ordering" {
		cal = slicing.OrderingServingCalibration
	}
	t2 := time.Now()
	checkAnswers(slicing.NewSimQuerier(e, cal), e.Partition(), rand.New(rand.NewSource(seed)), r)
	tr.add(0, 0, trace, "sim.check", t2, time.Now())
	return nil
}

// trialSeed derives the seed of a run's trial-th fresh system.
func trialSeed(seed int64, trial int) int64 { return seed*1_000_003 + int64(trial) }
