package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	slicing "github.com/gossipkit/slicing"
)

// serveWorkload serves /slice and /topk queries over HTTP from a warmed
// live cluster while a gossip goroutine keeps it gossiping.
type serveWorkload struct {
	n, slices int
	// warmup is the number of gossip periods advanced during set-up;
	// converge_s is timed inside it.
	warmup          int
	convergeN, endN float64
	// rounds per run, each a fresh set-up serving for its share of the
	// run's seconds.
	rounds int
	// The gossip goroutine advances the cluster by livePeriod/gossipSlices
	// every wallPeriod/gossipSlices of wall time: one gossip period per
	// wallPeriod, spread out the way a wall-clock cluster spreads its
	// nodes' ticks over a period rather than in one burst.
	wallPeriod   time.Duration
	gossipSlices int
	// rate is the offered load in queries per second, topKShare the
	// share of /topk among them, conns the keep-alive connections.
	rate      float64
	topKShare float64
	conns     int
	// ladder lists the offered rates serving.max_rps tries, each for
	// rungSeconds; p99Limit is the latency a rung must keep.
	ladder      []float64
	rungSeconds float64
	p99Limit    time.Duration
}

// served is one set-up: a started, warmed cluster behind a query server.
type served struct {
	c    *slicing.Cluster
	srv  *slicing.QueryServer
	part slicing.Partition
	base string
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // nothing is in flight; a drain timeout changes no result
	s.c.Stop()
}

// spanRef ties a server-side compute span to the client request that
// caused it.
type spanRef struct{ parent, trace uint64 }

// pendingSpans maps the argument of every query in flight, as
// math.Float64bits, to its spanRef: one map per endpoint.
type pendingSpans struct{ slices, topk sync.Map }

func (p *pendingSpans) of(q query) *sync.Map {
	if q.topk {
		return &p.topk
	}
	return &p.slices
}

// tracedQuerier records a span around every compute call. The server
// passes it only the query argument, so the argument identifies the
// request: every generated argument is distinct.
type tracedQuerier struct {
	slicing.SliceQuerier
	tr      *tracer
	pending *pendingSpans
}

func (q tracedQuerier) SliceOf(attr float64) (slicing.SliceAnswer, error) {
	start := time.Now()
	ans, err := q.SliceQuerier.SliceOf(attr)
	if ref, ok := q.pending.slices.Load(math.Float64bits(attr)); ok {
		q.tr.add(0, ref.(spanRef).parent, ref.(spanRef).trace, "serving.compute.slice", start, time.Now())
	}
	return ans, err
}

func (q tracedQuerier) TopK(frac float64) (slicing.TopKAnswer, error) {
	start := time.Now()
	ans, err := q.SliceQuerier.TopK(frac)
	if ref, ok := q.pending.topk.Load(math.Float64bits(frac)); ok {
		q.tr.add(0, ref.(spanRef).parent, ref.(spanRef).trace, "serving.compute.topk", start, time.Now())
	}
	return ans, err
}

// setup builds, starts and warms a cluster and stands its query server
// up, timing converge_s inside the warm-up.
func (s serveWorkload) setup(seed int64, r *report, tr *tracer, pending *pendingSpans) (*served, error) {
	cfg, err := liveWorkload{n: s.n, slices: s.slices, shards: 1}.config(seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		cfg.Telemetry = slicing.NewTelemetry()
	}
	trace := tr.newID()
	t0 := time.Now()
	c, err := slicing.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	var toConverge, scans time.Duration // scans: the oracle SDM, not set-up work
	converged := false
	for i := 0; i < s.warmup; i++ {
		start := time.Now()
		if err := c.Advance(livePeriod); err != nil {
			c.Stop()
			return nil, err
		}
		if !converged {
			mid := time.Now()
			toConverge += mid.Sub(start)
			converged = c.SDM() <= s.convergeN*float64(s.n)
			scans += time.Since(mid)
		}
	}
	q, err := slicing.NewClusterQuerier(c, slicing.RankingServingCalibration)
	if err != nil {
		c.Stop()
		return nil, err
	}
	var sq slicing.SliceQuerier = q
	if tr != nil {
		sq = tracedQuerier{SliceQuerier: q, tr: tr, pending: pending}
	}
	// The server always carries a registry, as a deployed node's does.
	srv := slicing.NewQueryServer(sq, slicing.ServeOptions{Addr: "127.0.0.1:0", Telemetry: slicing.NewTelemetry()})
	if err := srv.Start(); err != nil {
		c.Stop()
		return nil, err
	}
	t1 := time.Now()
	tr.add(0, 0, trace, "serving.setup", t0, t1)
	r.setupS = append(r.setupS, (t1.Sub(t0) - scans).Seconds())
	r.convergeS = append(r.convergeS, toConverge.Seconds())
	r.check(converged, "seed %d: SDM never reached %.3g·N in %d warm-up cycles", seed, s.convergeN, s.warmup)
	return &served{c: c, srv: srv, part: cfg.Partition, base: "http://" + srv.Addr()}, nil
}

// query is one generated request.
type query struct {
	topk bool
	arg  float64 // attr for /slice, frac for /topk
}

func (s serveWorkload) queries(rng *rand.Rand, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		if rng.Float64() < s.topKShare {
			qs[i] = query{topk: true, arg: topKFrac(rng)}
		} else {
			qs[i] = query{arg: uniformAttrs.Lo + rng.Float64()*(uniformAttrs.Hi-uniformAttrs.Lo)}
		}
	}
	return qs
}

// outcome is what one query brought back.
type outcome struct {
	fail      string // empty when the query succeeded and its answer checked out
	staleness float64
}

// ask sends one query and checks its answer.
func ask(client *http.Client, base string, q query, part slicing.Partition) outcome {
	path := "/slice?attr="
	if q.topk {
		path = "/topk?frac="
	}
	resp, err := client.Get(base + path + strconv.FormatFloat(q.arg, 'g', -1, 64))
	if err != nil {
		return outcome{fail: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return outcome{fail: fmt.Sprintf("%s%g: HTTP %d", path, q.arg, resp.StatusCode)}
	}
	var checked report
	if q.topk {
		var ans slicing.TopKAnswer
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return outcome{fail: fmt.Sprintf("%s%g: %v", path, q.arg, err)}
		}
		checkTopKAnswer(ans, q.arg, &checked)
	} else {
		var ans slicing.SliceAnswer
		if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
			return outcome{fail: fmt.Sprintf("%s%g: %v", path, q.arg, err)}
		}
		checked.check(ans.Attr == q.arg, "/slice echoed attr %g for %g", ans.Attr, q.arg)
		checkSliceAnswer(ans, part, &checked)
	}
	o := outcome{staleness: checked.staleness[0]}
	if len(checked.failures) > 0 {
		o.fail = checked.failures[0]
	}
	return o
}

// load runs one open-loop window of qs at rate against sv and returns
// its shots and outcomes.
func (s serveWorkload) load(sv *served, client *http.Client, qs []query, rate float64, tr *tracer, pending *pendingSpans) ([]shot, []outcome) {
	outs := make([]outcome, len(qs))
	roots := make([]uint64, len(qs))
	reqs := make([]uint64, len(qs))
	start := time.Now().Add(10 * time.Millisecond)
	shots := openLoop(start, rate, len(qs), s.conns, func(i int) {
		if tr != nil {
			roots[i], reqs[i] = tr.newID(), tr.newID()
			pending.of(qs[i]).Store(math.Float64bits(qs[i].arg), spanRef{parent: reqs[i], trace: roots[i]})
		}
		outs[i] = ask(client, sv.base, qs[i], sv.part)
	})
	if tr != nil {
		for i, sh := range shots {
			tr.add(roots[i], 0, roots[i], "serving.query", sh.origin, sh.done)
			tr.add(0, roots[i], roots[i], "loadgen.wait", sh.origin, sh.sent)
			tr.add(reqs[i], roots[i], roots[i], "serving.request", sh.sent, sh.done)
			pending.of(qs[i]).Delete(math.Float64bits(qs[i].arg))
		}
	}
	return shots, outs
}

// gossipLoop advances sv's cluster by step every interval until stop
// closes, and reports each advance's wall time; done counts the
// advances as they finish.
func gossipLoop(sv *served, step, every time.Duration, stop <-chan struct{}, done *atomic.Int64, tr *tracer) ([]time.Duration, error) {
	var advances []time.Duration
	start := time.Now()
	timer := time.NewTimer(every)
	defer timer.Stop()
	for k := 1; ; k++ {
		select {
		case <-stop:
			return advances, nil
		case <-timer.C:
		}
		t0 := time.Now()
		if err := sv.c.Advance(step); err != nil {
			return advances, err
		}
		t1 := time.Now()
		id := tr.newID()
		tr.add(id, 0, id, "serving.gossip_advance", t0, t1)
		advances = append(advances, t1.Sub(t0))
		done.Add(1)
		timer.Reset(max(0, time.Until(start.Add(time.Duration(k+1)*every))))
	}
}

// serveTotals pools what the rounds of one pass measured.
type serveTotals struct {
	tailsMS  []float64 // each round's p99 latency
	shots    []shot
	outs     []outcome
	advances []time.Duration
	maxRPS   float64
}

func (s serveWorkload) run(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}}
	h := newHeap()
	pending := &pendingSpans{}
	client := &http.Client{
		Timeout: 2 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true,
		},
	}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	var tot serveTotals
	for i := 0; i < s.rounds; i++ {
		// The ladder runs beside the same gossip load after the last
		// round's window, in the traced pass only: a rung's pass/fail is
		// too coarse a number to bound.
		ladder := tr != nil && i == s.rounds-1
		if err := s.round(trialSeed(seed, i), seconds/float64(s.rounds), ladder, rng, client, r, h, &tot, tr, pending); err != nil {
			return nil, err
		}
	}
	r.memPeak = h.peak

	late := make([]float64, len(tot.shots))
	for i, sh := range tot.shots {
		r.latMS = append(r.latMS, float64(sh.latency())/float64(time.Millisecond))
		late[i] = float64(sh.late()) / float64(time.Millisecond)
		r.ops++
		r.check(tot.outs[i].fail == "", "query %d: %s", i, tot.outs[i].fail)
		if tot.outs[i].fail == "" {
			r.staleness = append(r.staleness, tot.outs[i].staleness)
		}
	}
	r.ops += len(tot.advances)

	if tr == nil {
		return r, nil
	}
	ix := indexSpans(tr.snapshot())
	us := func(ms []float64) []float64 {
		out := make([]float64, len(ms))
		for i, v := range ms {
			out[i] = v * 1000
		}
		return out
	}
	req := us(ix.durationsMS("serving.request"))
	var selfUS []float64
	for _, d := range ix.selfTimes("serving.request") {
		selfUS = append(selfUS, float64(d)/float64(time.Microsecond))
	}
	m := r.layer
	// A few multi-millisecond stalls decide a p99; the median of the
	// rounds' p99s is not carried by one unlucky round.
	m["serving.latency_p99_ms"] = median(tot.tailsMS)
	m["serving.request_us_p50"] = median(req)
	m["serving.request_us_p99"] = percentile(req, 99)
	m["serving.compute_us_slice"] = median(us(ix.durationsMS("serving.compute.slice")))
	m["serving.compute_us_topk"] = median(us(ix.durationsMS("serving.compute.topk")))
	m["serving.http_self_us"] = median(selfUS)
	m["serving.gossip_advance_ms"] = median(durationsMS(tot.advances))
	m["serving.gossip_cycles_per_s"] = r.cyclesPerS()
	m["serving.max_rps"] = tot.maxRPS
	m["loadgen.late_ms_p99"] = percentile(late, 99)
	return r, nil
}

// maxRate climbs the ladder of offered rates against sv and returns the
// highest that kept p99 within the limit with every query answered; a
// growing backlog shows in the p99, which counts from the due time.
func (s serveWorkload) maxRate(sv *served, client *http.Client, rng *rand.Rand) float64 {
	best := 0.0
	for _, rate := range s.ladder {
		shots, outs := s.load(sv, client, s.queries(rng, int(rate*s.rungSeconds)), rate, nil, nil)
		lat := make([]float64, len(shots))
		for i, sh := range shots {
			if outs[i].fail != "" {
				return best
			}
			lat[i] = float64(sh.latency())
		}
		if percentile(lat, 99) > float64(s.p99Limit) {
			return best
		}
		best = rate
	}
	return best
}

// round sets a fresh cluster up, serves the open loop for seconds
// beside the gossip goroutine, checks the cluster and tears it down.
func (s serveWorkload) round(seed int64, seconds float64, ladder bool, rng *rand.Rand, client *http.Client,
	r *report, h *heap, tot *serveTotals, tr *tracer, pending *pendingSpans) error {
	runtime.GC()
	sv, err := s.setup(seed, r, tr, pending)
	if err != nil {
		return err
	}
	defer sv.close()
	h.settle()

	stop := make(chan struct{})
	var advances []time.Duration
	var gossipErr error
	var gossiped atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slices := time.Duration(s.gossipSlices)
		advances, gossipErr = gossipLoop(sv, livePeriod/slices, s.wallPeriod/slices, stop, &gossiped, tr)
	}()
	windowStart := time.Now()
	shots, outs := s.load(sv, client, s.queries(rng, int(s.rate*seconds)), s.rate, tr, pending)
	window := time.Since(windowStart)
	windowAdvances := int(gossiped.Load())
	r.timedCycles += float64(windowAdvances) / float64(s.gossipSlices)
	r.timedS += window.Seconds()
	if ladder {
		tot.maxRPS = s.maxRate(sv, client, rng)
	}
	close(stop)
	wg.Wait()
	if gossipErr != nil {
		return gossipErr
	}
	lat := make([]float64, len(shots))
	for i, sh := range shots {
		lat[i] = float64(sh.latency()) / float64(time.Millisecond)
	}
	tot.tailsMS = append(tot.tailsMS, percentile(lat, 99))
	tot.shots = append(tot.shots, shots...)
	tot.outs = append(tot.outs, outs...)
	tot.advances = append(tot.advances, advances[:windowAdvances]...)

	h.settle()
	sdm := sv.c.SDM()
	r.sdmFinal = append(r.sdmFinal, sdm)
	mc := sv.c.MessageCounts()
	r.check(len(sv.c.Nodes()) == s.n, "seed %d: %d live nodes, want %d", seed, len(sv.c.Nodes()), s.n)
	r.check(mc.ViewRequests == mc.ViewReplies && mc.Dropped == 0,
		"seed %d: static cluster delivered %d view requests, %d replies, %d dropped",
		seed, mc.ViewRequests, mc.ViewReplies, mc.Dropped)
	r.check(sdm <= s.endN*float64(s.n), "seed %d: final SDM %.0f above %.3g·N", seed, sdm, s.endN)
	return nil
}
