// Command bench is the repository's benchmark: it drives the slicing
// module from outside, through the root package's exported API only
// (NewSimulation/Step/Phases/MemReport/Delivered, NewCluster/Start/
// Advance/SDM/MessageCounts, NewClusterQuerier/NewQueryServer), so
// internal packages can be merged or deleted without breaking it. It
// builds every workload from its own configuration and the seed it is
// given; it names no scenario of the registry.
//
// # Running
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package (its own module, replacing the slicing
// module with the checkout above it) into .bench_build/ and runs it.
// Standard output carries a tag line (the box fingerprint — commit, Go
// version, nproc, GOMAXPROCS, CPU model — with workload, seed, seconds)
// and, last, one JSON result line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":0.29,"unit":"s"},...}}
//
// With --trace 0 the metrics are the end-to-end ones below; with
// --trace 1 the per-layer ones. Output checks run in both; a failed
// check makes correct false, counts in failed and in ok_frac, and the
// command exits 1. The same seed gives the same inputs: the i-th fresh
// system of a run is built from seed·1000003+i, and query arguments
// come from a generator seeded with the seed.
//
//	bash bench/run.sh summarize -out bench/baseline.json <files of saved stdout>
//
// folds saved runs into the per-workload, per-metric median and
// quartiles that bench/baseline.json records with the box fingerprint.
//
// # Workloads
//
// sim-ordering-100k: the cycle simulator, N=100,000, mod-JK ordering,
// Cyclon views c=20, 100 slices, static, Workers 1. Each fresh engine
// steps 16 warm-up cycles, within which it must converge (SDM ≤ 2·N,
// reached near cycle 7; the protocol phase keeps shrinking until about
// cycle 14, as fewer nodes are misplaced), then a timed window of 14
// cycles; at least 40 timed cycles a run. Membership (view merge/trim) is about two thirds
// of its cycle, so it is the workload for view and membership work; it
// runs the ordering rank/swap kernels and bypasses churn, ranking and
// the parallel engine. Checked at SDM ≤ 0.5·N after the window.
//
// sim-ranking-churn-100k: the simulator, N=100,000, ranking with the
// counter estimator, 100 slices, 0.1%/cycle uniform churn, Workers 2.
// Fresh engines of 12 warm-up cycles (converged at SDM ≤ 3·N, reached
// near cycle 8) and a window of 14, at least 40 timed a run. The protocol phase
// (target selection, rank-update delivery, parallel commit) is about
// half its cycle; it is the only workload through the churn phase and
// the parallel cycle engine, so a serial-kernel gain shows on the first
// workload and a parallel gain here. Checked at SDM ≤ 2.5·N after the
// window.
//
// live-ranking-10k: a driven live cluster (VirtualClock), N=10,000,
// ranking, c=20, 100 slices, Shards 2, one Advance(period) per cycle, no
// loss, no churn. Fresh clusters of 20 warm-up cycles and a window of
// 20, at least 100 timed a run. The only workload through the runtime's
// sharded scheduler and the live node's merge and target paths; it
// gives live wall time to convergence (SDM ≤ 2·N, reached near cycle 15,
// within the warm-up) and is checked at SDM ≤ 1.5·N after the window.
//
// serve-gossip-1k: a driven live ranking cluster, N=1,000, 10 slices,
// Shards 1, warmed 40 periods during set-up (converged at SDM ≤ 0.15·N),
// behind a query server with a telemetry registry, as a deployed node
// runs it. A gossip goroutine keeps the cluster gossiping at the
// program's default pace, one period per slicing.DefaultPeriod (500 ms)
// of wall time, as a deployed node does: it advances a tenth of a
// period every 50 ms, spread the way a wall-clock cluster spreads its
// nodes' ticks over a period rather than in one burst. Meanwhile an open
// loop offers 2,000 queries/s (90% /slice, 10% /topk) on 2 keep-alive
// connections: about 7% of the 26–32k queries/s that 2 closed-loop
// clients drew from a frozen cluster on a 2-core box, so the server is
// far from saturation and the latencies describe a query's own path
// beside gossip, not a queue (serving.max_rps finds where one builds). A
// run is 10 rounds, each a fresh cluster serving a tenth of the seconds.
// The only workload through serving compute, net/http+JSON and the
// telemetry instruments; gossip writes contend with query reads on node
// locks and on the two cores. Checked at SDM ≤ 0.2·N at the end of each
// round.
//
// All load comes from this one process, using at most nproc threads
// and connections.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports every metric; the unit of work differs:
//
//	setup_s          median over the run's set-ups of construction + start
//	                 (+ warm-up and server start on serve), apart from all else
//	cycles_per_s     cycles of the timed windows over their wall seconds,
//	                 pooled over the run's fresh systems: past convergence,
//	                 set-up and warm-up excluded, every build timing the
//	                 same cycles; on serve, gossip periods achieved beside
//	                 the query load
//	converge_s       mean over fresh systems of the wall seconds of
//	                 Step/Advance until SDM ≤ the workload's bound, inside
//	                 the warm-up; the oracle SDM scan (the sim's measure
//	                 phase) is excluded
//	sdm_final        median SDM at the end of each fresh system's window;
//	                 guards against a speed-up that converges worse
//	mem_peak_mb      peak live heap (runtime/metrics /gc/heap/live:bytes)
//	                 over collections forced after each set-up and at the
//	                 end of each fresh system, so it does not depend on
//	                 where the collector happened to run
//	ok_frac          1 − fail_frac: sim and live count dropped protocol
//	                 messages over sent ones, serve counts queries that
//	                 failed, timed out, were refused or failed the answer
//	                 check; every failed output check counts too
//	latency_p50_ms   median of the unit of work: a timed Step, a timed
//	                 Advance, or a query timed from when it was due (see
//	                 below)
//	staleness_mean   mean Theorem-5.1 staleness bound of the checked
//	                 answers: 220 in-process queries after each fresh
//	                 system on sim and live, every HTTP answer on serve
//
// cycles_per_s and converge_s pool or average the run's fresh systems
// instead of taking the median of a few: on a shared 2-core box the
// host has slow spells of seconds, and a median of three would snap a
// whole run to whichever spell held two of them.
//
// A query is timed from its scheduled send time, so a stall also charges
// the wait it imposes on the queries behind it. The one exception is the
// generator's own timer slack: on an idle box the Go runtime wakes a
// sleeper up to a millisecond late, so a query whose sleep overran is
// timed from when the sleep returned, but never from later than 1 ms
// after its due time. An oversleep past that is the CPU busy with the
// system under test, and counts. The whole lag is reported as
// loadgen.late_ms_p99.
//
// Tail latencies are per-layer metrics, not end-to-end ones: on a shared
// 2-core box a p99 is decided by a handful of multi-millisecond stalls
// per run and moved by 25–60% between runs of the same code, more than
// any bound can absorb. Each is the highest percentile with at least 10
// samples beyond it at the workload's guaranteed sample count: p75 of
// ≥ 40 steps on the sims, p90 of ≥ 100 advances on live, and on serve
// the median over rounds of each round's p99 (≥ 3,000 queries a round at
// 15 s).
//
// The output checks: the population is intact; view requests equal view
// replies on static runs; SDM is at or below the workload's bound at the
// end; every answer's slice index equals Partition.Index(rank) and its
// staleness bound is a finite share of the rank domain.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first repeats the untraced pass (for telemetry.overhead_pct)
// and then runs a pass with spans recorded by this package at every
// boundary below — name, start, end, parent, and a trace ID shared by
// one trial, cycle or query — and the program's own telemetry registries
// attached. Spans stay in memory and are written to
// .bench_build/trace-<workload>-seed<n>.jsonl when the run ends. A span's
// self time is its duration minus the part of it its children cover.
// Per-layer figures of the sims and live cover the same timed window as
// cycles_per_s. Each metric, its layer, and the end-to-end metric it
// should move:
//
//	internal/sim (sim workloads)
//	  sim.new_s                     → setup_s
//	  sim.step_ms_p50, _tail        → cycles_per_s, latency_p50_ms
//	  sim.step_self_pct             step time the four phase spans leave
//	                                uncovered (they account for the step)
//	  sim.membership_ns_per_node    internal/view + internal/membership
//	                                → cycles_per_s, mostly sim-ordering-100k
//	  sim.protocol_ns_per_node      internal/ordering (first) or
//	                                internal/ranking (second workload)
//	                                → cycles_per_s, mostly sim-ranking-churn-100k
//	  sim.churn_ns_per_cycle        internal/churn → cycles_per_s on
//	                                sim-ranking-churn-100k; on ordering
//	                                the empty phase's timing alone, a
//	                                few hundred ns
//	  sim.measure_ns_per_node       the oracle SDM scan
//	  sim.alloc_bytes_per_cycle     → cycles_per_s, mem_peak_mb
//	  sim.bytes_per_node            MemReport → mem_peak_mb
//	  sim.view_exchanges_per_cycle, sim.swaps_per_cycle,
//	  sim.rank_updates_per_cycle    counts that repeat exactly: a speed
//	                                claim that moves them changed behaviour
//	  sim.dropped_per_cycle         → ok_frac
//	  ordering.swap_success_ratio   applied swaps over twice the attempted
//	                                exchanges → sdm_final on sim-ordering-100k
//	internal/runtime (live-ranking-10k)
//	  runtime.new_cluster_s, runtime.start_ms → setup_s
//	  runtime.advance_ms_p50, _tail → cycles_per_s, converge_s
//	  runtime.ns_per_msg            Advance time over messages delivered in
//	                                it: scheduler, handlers, merge, targets
//	                                → cycles_per_s
//	  runtime.msgs_per_cycle, runtime.dropped_per_cycle → ok_frac
//	  runtime.timer_lag_p99_s, runtime.queue_depth_max  waiting, read from
//	                                the cluster's registry; the queue
//	                                depth is polled every ms during each
//	                                timed Advance of one more fresh
//	                                cluster of its own, so the poller's
//	                                cost stays out of the other figures
//	  runtime.sdm_ms                the oracle scan converge_s excludes
//	  runtime.alloc_bytes_per_cycle → cycles_per_s, mem_peak_mb
//	internal/serving (serve-gossip-1k)
//	  serving.latency_p99_ms        queries from their due time, median of
//	                                the rounds' p99s (what a client
//	                                of the service sees at the tail)
//	  serving.request_us_p50, _p99  client span → latency_p50_ms
//	  serving.compute_us_slice, _topk  spans in a SliceQuerier wrapper
//	                                handed to NewQueryServer
//	  serving.http_self_us          request minus compute: HTTP, JSON and
//	                                telemetry → latency_p50_ms
//	  serving.gossip_advance_ms, serving.gossip_cycles_per_s
//	                                write-side contention →
//	                                serving.latency_p99_ms
//	  serving.max_rps               highest rate of 1k/2k/4k/8k/16k/32k
//	                                queries/s (1 s each, gossip running)
//	                                keeping p99 ≤ 5 ms with no failure;
//	                                latency from the due time includes any
//	                                backlog, so a growing one fails the
//	                                rung. Beside gossip, p99 exceeds 1 ms
//	                                already at the window's 2,000
//	                                queries/s on a 2-core box.
//	  loadgen.late_ms_p99           how far the generator ran behind
//	internal/telemetry
//	  telemetry.overhead_pct        the traced pass's headline (cycles_per_s,
//	                                or the p50 query latency on serve)
//	                                against the untraced pass, + = slower
//
// A workload reports 0 for a layer it bypasses.
//
// # Out of scope
//
// internal/transport (the wire codec and TCP) is not covered: driven
// clusters refuse an external transport (ErrExternalDriven), so no
// in-process workload sends traffic through it. N=1,000,000 needs about
// 2 GB of engine state and seconds per cycle on a small box, more than a
// run of a few tens of seconds can measure steadily; N=100,000 carries
// the same kernels.
package main

const usage = `usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       bench summarize [-out file] <saved stdout files...>

workloads:
  sim-ordering-100k       simulator, mod-JK ordering, static, serial engine
  sim-ranking-churn-100k  simulator, ranking, 0.1%/cycle churn, 2 workers
  live-ranking-10k        driven live cluster, ranking, 2 shards
  serve-gossip-1k         HTTP queries at 2,000/s against a gossiping 1k cluster

See the package documentation (bench/doc.go) for what each loads and
what each metric means.
`
