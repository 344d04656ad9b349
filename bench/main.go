package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, reported by
// every workload with tracing off (see doc.go for what each means per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cycles_per_s", "1/s"},
	{"converge_s", "s"},
	{"sdm_final", "sdm"},
	{"mem_peak_mb", "MB"},
	{"ok_frac", "ratio"},
	{"latency_p50_ms", "ms"},
	{"staleness_mean", "rank"},
}

// perLayer lists the traced run's metrics. A workload reports 0 for a
// layer it bypasses.
var perLayer = []metricDef{
	{"sim.new_s", "s"},
	{"sim.step_ms_p50", "ms"},
	{"sim.step_ms_tail", "ms"},
	{"sim.step_self_pct", "%"},
	{"sim.membership_ns_per_node", "ns"},
	{"sim.protocol_ns_per_node", "ns"},
	{"sim.churn_ns_per_cycle", "ns"},
	{"sim.measure_ns_per_node", "ns"},
	{"sim.alloc_bytes_per_cycle", "B"},
	{"sim.bytes_per_node", "B"},
	{"sim.view_exchanges_per_cycle", "count"},
	{"sim.swaps_per_cycle", "count"},
	{"sim.rank_updates_per_cycle", "count"},
	{"sim.dropped_per_cycle", "count"},
	{"ordering.swap_success_ratio", "ratio"},
	{"runtime.new_cluster_s", "s"},
	{"runtime.start_ms", "ms"},
	{"runtime.advance_ms_p50", "ms"},
	{"runtime.advance_ms_tail", "ms"},
	{"runtime.ns_per_msg", "ns"},
	{"runtime.msgs_per_cycle", "count"},
	{"runtime.dropped_per_cycle", "count"},
	{"runtime.timer_lag_p99_s", "s"},
	{"runtime.queue_depth_max", "count"},
	{"runtime.sdm_ms", "ms"},
	{"runtime.alloc_bytes_per_cycle", "B"},
	{"serving.latency_p99_ms", "ms"},
	{"serving.request_us_p50", "us"},
	{"serving.request_us_p99", "us"},
	{"serving.compute_us_slice", "us"},
	{"serving.compute_us_topk", "us"},
	{"serving.http_self_us", "us"},
	{"serving.gossip_advance_ms", "ms"},
	{"serving.gossip_cycles_per_s", "1/s"},
	{"serving.max_rps", "1/s"},
	{"loadgen.late_ms_p99", "ms"},
	{"telemetry.overhead_pct", "%"},
}

// report is what one pass of a workload measured.
type report struct {
	setupS    []float64 // one per set-up
	convergeS []float64 // one per fresh system
	sdmFinal  []float64 // one per fresh system
	cycles    int       // timed cycles run (sim and live)
	latMS     []float64 // the workload's unit of work, from its due time
	staleness []float64 // staleness bounds of every checked answer
	memPeak   uint64    // peak live heap, bytes
	sent      uint64    // operations whose failure counts in ok_frac
	lost      uint64    // of which failed
	ops       int       // benchmark operations performed
	checks    int
	failures  []string // failed output checks, one line each
	layer     map[string]float64

	// timedCycles over timedS is cycles_per_s, pooled over the run so
	// that one fresh system caught in a slow spell of the host moves it
	// by its share, not all or nothing as a median of a few would.
	timedCycles, timedS float64
}

// check records one output check.
func (r *report) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// headline is the number telemetry.overhead_pct compares between the
// untraced and the traced pass, oriented so that larger is worse.
func (r *report) headline(w workload) float64 {
	if w.serving {
		return median(r.latMS)
	}
	return -r.cyclesPerS()
}

// cyclesPerS is the timed cycles per wall second of the run.
func (r *report) cyclesPerS() float64 { return r.timedCycles / r.timedS }

// endToEndMetrics derives the user-facing metrics of an untraced pass.
func (r *report) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(r.setupS),
		"cycles_per_s":   r.cyclesPerS(),
		"converge_s":     sum(r.convergeS) / float64(len(r.convergeS)),
		"sdm_final":      median(r.sdmFinal),
		"mem_peak_mb":    float64(r.memPeak) / (1 << 20),
		"ok_frac":        1 - float64(r.lost+uint64(len(r.failures)))/float64(r.sent+uint64(r.checks)),
		"latency_p50_ms": median(r.latMS),
		"staleness_mean": sum(r.staleness) / float64(len(r.staleness)),
	}
}

// heap tracks the peak live heap and the bytes allocated, from the
// runtime's counters.
type heap struct {
	peak    uint64
	samples []metrics.Sample
}

func newHeap() *heap {
	return &heap{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// settle collects garbage and folds the exact live heap into the peak.
// The peak is taken only here, at points the workloads choose (after
// each set-up and at the end of each fresh system), so that it does not
// depend on where the collector happened to run.
func (h *heap) settle() {
	runtime.GC()
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64())
}

// allocated returns the bytes allocated since the process started; it
// does not stop the world.
func (h *heap) allocated() uint64 {
	metrics.Read(h.samples)
	return h.samples[1].Value.Uint64()
}

// fingerprint tags results with the box and the commit they came from.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu"`
}

func boxFingerprint() fingerprint {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name Linux reports; "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summarize" {
		if err := summarizeMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	box := boxFingerprint()
	tag, _ := json.Marshal(map[string]any{
		"box": box, "workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
	})
	fmt.Fprintln(stdout, string(tag))

	plain, err := w.run(*seed, *seconds, nil)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	passes := []*report{plain}
	if *trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{plain.endToEndMetrics()[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		traced, err := w.run(*seed, *seconds, tr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s (traced): %v\n", w.name, err)
			return 1
		}
		passes = append(passes, traced)
		traced.layer["telemetry.overhead_pct"] = 100 * (traced.headline(w) - plain.headline(w)) / math.Abs(plain.headline(w))
		fmt.Fprintf(stderr, "bench: headline %.6g untraced, %.6g traced\n", math.Abs(plain.headline(w)), math.Abs(traced.headline(w)))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{traced.layer[m.name], m.unit}
		}
		path := filepath.Join(outDir(), fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := tr.writeJSONL(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: wrote %d spans to %s\n", len(tr.spans), path)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "bench: %s: %s was not measured (%v)\n", w.name, name, m.Value)
			return 1
		}
	}
	for _, p := range passes {
		res.Attempted += p.ops + p.checks
		res.Failed += len(p.failures)
		for _, f := range p.failures {
			fmt.Fprintf(stderr, "bench: CHECK FAILED: %s\n", f)
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outDir is where traces go: BENCH_OUT, set by run.sh to the
// checkout's build directory, or the working directory.
func outDir() string {
	if d := os.Getenv("BENCH_OUT"); d != "" {
		return d
	}
	return "."
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
