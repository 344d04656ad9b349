package main

import (
	"time"

	slicing "github.com/gossipkit/slicing"
)

// workload is one named set of inputs; run measures one pass of it for
// about seconds, tracing spans into tr when tr is non-nil. A serving
// workload's headline is its query latency, any other's its cycle rate.
type workload struct {
	name    string
	serving bool
	run     func(seed int64, seconds float64, tr *tracer) (*report, error)
}

// workloads are documented in doc.go; keep the two in step.
var workloads = []workload{
	{"sim-ordering-100k", false, simWorkload{
		n: 100_000, slices: 100, protocol: "ordering", workers: 1,
		warm: 16, cycles: 14, convergeN: 2, endN: 0.5, minCycles: 40,
	}.run},
	{"sim-ranking-churn-100k", false, simWorkload{
		n: 100_000, slices: 100, protocol: "ranking", churn: 0.001, workers: 2,
		warm: 12, cycles: 14, convergeN: 3, endN: 2.5, minCycles: 40,
	}.run},
	{"live-ranking-10k", false, liveWorkload{
		n: 10_000, slices: 100, shards: 2,
		warm: 20, cycles: 20, convergeN: 2, endN: 1.5, minCycles: 100,
	}.run},
	{"serve-gossip-1k", true, serveWorkload{
		n: 1000, slices: 10, warmup: 40, convergeN: 0.15, endN: 0.2, rounds: 10,
		wallPeriod: slicing.DefaultPeriod, gossipSlices: 10,
		rate: 2000, topKShare: 0.1, conns: 2,
		ladder:      []float64{1000, 2000, 4000, 8000, 16000, 32000},
		rungSeconds: 1, p99Limit: 5 * time.Millisecond,
	}.run},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
