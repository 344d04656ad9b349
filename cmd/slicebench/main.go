// Command slicebench lists, runs and sweeps the declarative scenarios of
// the slicing evaluation: the paper's figure families (Figs. 4 and 6 of
// ICDCS 2007) and the extension workloads, as registered in
// internal/scenario.
//
// Usage:
//
//	slicebench list
//	slicebench list -family chaos
//	slicebench run fig6-burst -scale 0.05
//	slicebench sweep -family chaos -scale 0.1 -backend live -out BENCH_chaos.json
//	slicebench run fig4-policies -format csv -every 5
//	slicebench run live-convergence -backend live -scale 0.1
//	slicebench run scale-100k -simworkers 8 -cpuprofile cpu.prof -memprofile mem.prof
//	slicebench run scale-100k/ranking-churn -simworkers 2 -cpuprofile cpu.prof
//	slicebench sweep -scenarios all -scale 0.02 -replicas 2 -workers 8
//	slicebench sweep -scenarios scale-10k,scale-50k,scale-100k -out BENCH_scale.json
//	slicebench sweep -backend live -scale 0.1 -workers 2 -out BENCH_live.json
//	slicebench sweep -scenarios fig4-concurrency,fig6-steady -format csv
//	slicebench serve-bench -out BENCH_serving.json
//	slicebench serve-bench -backend sim -specs ranking-1k -queries 50000
//	slicebench compare BENCH_scale_old.json BENCH_scale.json -fail-above 20
//	slicebench summarize BENCH_sweep.json BENCH_scale.json -out BENCH_summary.json
//
// run executes one scenario family — or, named scenario/spec, one spec
// of it — and prints its SDM curves side by side (table, csv or json). sweep expands a scenario grid — families ×
// seed replicas — across a worker pool and emits one summary record per
// run, including wall time and cycles/sec, so a sweep doubles as a
// benchmark. Sweep output is deterministic: with -timing=false the same
// grid and seed produce byte-identical JSON regardless of -workers.
//
// Both run and sweep accept -backend sim|live (default sim): one spec,
// two engines. The live backend materializes each spec as a cluster of
// real protocol participants on the runtime's sharded scheduler —
// churn as actual joins and crashes, latency/loss injected per the
// spec's live block — and reports the same result shape plus a backend
// tag. Scenarios declare the backends they support (see list); a live
// sweep over "all" auto-selects the live-capable families.
//
// -simworkers puts all cores inside EACH simulator run (the engine's
// parallel cycle rounds) instead of across runs; results are
// bit-identical at any value, so it is purely a throughput knob for big
// single runs like scale-100k.
//
// serve-bench measures the query plane (internal/serving): it warms a
// scenario cluster up on either backend, mounts the HTTP slice-query
// server on loopback, drives concurrent /slice and /topk load against
// it, and reports p50/p99 latency plus the staleness bounds the
// answers carried — written to BENCH_serving.json with -out. The
// artifact is kept separate from BENCH_summary.json so latency noise
// never trips the perf regression gate.
//
// compare diffs the timing of two sweep artifacts run for run
// (cycles/sec and wall-time deltas, with a -fail-above regression
// gate on the MEDIAN drop across gated runs — a code regression slows
// most runs, machine noise swings individual runs both ways;
// -min-wall-ms additionally restricts the gate to runs long enough
// that their timing is signal rather than scheduler noise, while
// missing-run detection still covers every run), and summarize
// consolidates sweep artifacts into the stable BENCH_summary.json
// shape — together they turn the per-build BENCH_*.json files into a
// perf trajectory across PRs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slicebench:", err)
		os.Exit(1)
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `usage:
  slicebench list                      list registered scenarios
  slicebench run <scenario>[/<spec>]   run one scenario family (or one spec of it)
  slicebench sweep [flags]             run a scenario × seed grid
  slicebench serve-bench [flags]       serve a warmed-up cluster, measure query latency
  slicebench trace <scenario>|[-url]   capture a protocol trace as JSON
  slicebench compare <old> <new>       diff the timing of two result files
  slicebench summarize <files...>      consolidate result files into one summary

run 'slicebench <subcommand> -h' for flags`)
}

func run(args []string, out, errOut io.Writer) error {
	// Global diagnostics flags precede the subcommand (flag parsing
	// stops at the first non-flag argument, the subcommand itself):
	//
	//	slicebench -log-level debug run live-convergence
	gfs := flag.NewFlagSet("slicebench", flag.ContinueOnError)
	gfs.SetOutput(errOut)
	logLevel := gfs.String("log-level", "", telemetry.LogLevelUsage)
	logFormat := gfs.String("log-format", "", telemetry.LogFormatUsage)
	gfs.Usage = func() { usage(errOut) }
	if err := gfs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(errOut, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	args = gfs.Args()
	if len(args) == 0 {
		usage(errOut)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return runList(args[1:], out, errOut)
	case "run":
		return runOne(args[1:], out, errOut)
	case "sweep":
		return runSweep(args[1:], out, errOut)
	case "serve-bench":
		return runServeBench(args[1:], out, errOut)
	case "trace":
		return runTrace(args[1:], out, errOut)
	case "compare":
		return runCompare(args[1:], out, errOut)
	case "summarize":
		return runSummarize(args[1:], out, errOut)
	case "-h", "--help", "help":
		usage(out)
		return nil
	default:
		usage(errOut)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// runList prints the scenario catalog, optionally filtered by family
// name or tag.
func runList(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench list", flag.ContinueOnError)
	fs.SetOutput(errOut)
	family := fs.String("family", "", "only list scenarios matching this name or tag (e.g. chaos)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("list takes flags only, got %q", fs.Args())
	}
	tab := metrics.NewTable("name", "figure", "backends", "tags", "specs", "description")
	listed := 0
	for _, sc := range scenario.All() {
		if *family != "" && !sc.HasTag(*family) {
			continue
		}
		listed++
		fig := sc.Figure
		if fig == "" {
			fig = "extension"
		}
		backends := scenario.BackendSim
		if sc.SupportsBackend(scenario.BackendLive) {
			backends += "+" + scenario.BackendLive
		}
		tab.AddRow(sc.Name, fig, backends, strings.Join(sc.Tags, ","), len(sc.Specs), sc.Description)
	}
	if *family != "" && listed == 0 {
		return fmt.Errorf("no scenario matches family %q (see 'slicebench list')", *family)
	}
	_, err := tab.WriteTo(out)
	return err
}

// liveWorkers resolves the -workers default per backend: 0 means "all
// cores" for sim runs, but each live run spins up its own
// scheduler-shard worker pool, so defaulting live sweeps to all cores
// would oversubscribe the machine quadratically. Explicit values are
// honored either way.
func liveWorkers(workers int, be scenario.Backend) int {
	if workers == 0 && be != nil && be.Name() == scenario.BackendLive {
		return 2
	}
	return workers
}

// resolveBackend parses the -backend flag and checks the named
// scenarios against it.
func resolveBackend(name string, scenarios []string) (scenario.Backend, error) {
	b, err := scenario.BackendByName(name)
	if err != nil {
		return nil, err
	}
	for _, scName := range scenarios {
		sc, err := scenario.Lookup(scName)
		if err != nil {
			return nil, err
		}
		if !sc.SupportsBackend(b.Name()) {
			return nil, fmt.Errorf("scenario %q does not declare the %q backend (see 'slicebench list')", scName, b.Name())
		}
	}
	return b, nil
}

// runOne executes one scenario family and renders its SDM curves.
func runOne(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench run", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scale      = fs.Float64("scale", 1, "population/cycle scale in (0,1]; 1 = paper scale")
		seed       = fs.Int64("seed", 1, "base seed for per-run seed derivation")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores; live backend defaults to 2)")
		simWorkers = fs.Int("simworkers", 0, "per-run simulator compute workers (0 = spec value; results are identical at any count)")
		backend    = fs.String("backend", "sim", "execution backend: sim|live")
		format     = fs.String("format", "table", "output format: table|csv|json")
		every      = fs.Int("every", 1, "record the SDM every k-th cycle")
		cycles     = fs.Int("cycles", 0, "override every spec's cycle count (0 = spec value)")
		timing     = fs.Bool("timing", true, "report wall time per run (json only)")
		memStats   = fs.Bool("memstats", false, "print the engine memory budget per run (arena bytes, bytes/node) plus process heap stats")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf    = fs.String("memprofile", "", "write a post-run heap profile to this file")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics and /debug/trace for the running scenario on this address (runs sharing the process share the gauges; use -workers 1 for per-run readings)")
	)
	// Accept the scenario name before the flags (the natural word order)
	// or after them; the flag package only parses flags up front.
	var name string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case name == "" && fs.NArg() == 1:
		name = fs.Arg(0)
	case name != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("run needs exactly one scenario name (see 'slicebench list')")
	}
	// "scenario/spec" runs one spec of the family, e.g.
	// scale-100k/ranking-churn.
	name, specName, _ := strings.Cut(name, "/")
	sc, err := scenario.Lookup(name)
	if err != nil {
		return err
	}
	be, err := resolveBackend(*backend, []string{name})
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		inst := scenario.Instrumentation{
			Telemetry: telemetry.NewRegistry(),
			Trace:     telemetry.NewTraceRing(0),
		}
		switch b := be.(type) {
		case scenario.SimBackend:
			b.Inst = inst
			be = b
		case scenario.LiveBackend:
			b.Inst = inst
			be = b
		}
		ln, err := serveDebug(*debugAddr, inst)
		if err != nil {
			return err
		}
		defer ln.Close()
		slog.Info("serving run diagnostics", "url", "http://"+ln.Addr().String(),
			"endpoints", "/metrics /debug/trace")
	}
	g := scenario.Grid{Scenarios: []string{name}, Scale: *scale, BaseSeed: *seed}
	runs, err := g.Expand()
	if err != nil {
		return err
	}
	if specName != "" {
		runs = slices.DeleteFunc(runs, func(r scenario.Run) bool { return r.Spec.Name != specName })
		if len(runs) == 0 {
			return fmt.Errorf("scenario %q has no spec %q", name, specName)
		}
		for i := range runs {
			runs[i].Index = i // Sweep files results by index
		}
	}
	for i := range runs {
		if *every > 0 {
			runs[i].Spec.SampleEvery = *every
		}
		if *simWorkers > 0 {
			runs[i].Spec.SimWorkers = *simWorkers
		}
		if *cycles > 0 {
			runs[i].Spec.Cycles = *cycles
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	r := scenario.Runner{Workers: liveWorkers(*workers, be), DisableTiming: !*timing, Backend: be}
	results := r.Sweep(runs, nil)
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the retained heap before profiling it
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	for _, res := range results {
		if res.Error != "" {
			return fmt.Errorf("%s/%s: %s", res.Scenario, res.Spec.Name, res.Error)
		}
	}
	if *memStats {
		writeMemStats(errOut, results)
	}
	switch *format {
	case "json":
		return scenario.WriteJSON(out, results)
	case "csv", "table":
		fmt.Fprintf(out, "# %s — %s\n", sc.Name, sc.Description)
		series := make([]metrics.Series, len(results))
		for i, res := range results {
			series[i] = metrics.Series{Name: res.Spec.Name}
			for _, p := range res.SDM {
				series[i].Points = append(series[i].Points, p)
			}
		}
		if *format == "csv" {
			return metrics.WriteCSV(out, "cycle", series...)
		}
		return writeSeriesTable(out, series)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// writeMemStats prints each run's engine-side memory budget (the
// deterministic accounting sim.MemReport performs over the arena and
// the per-slot slices) followed by the process-level heap picture from
// runtime.ReadMemStats — the two together separate "what the engine
// reserves per node" from allocator slack and GC headroom.
func writeMemStats(out io.Writer, results []scenario.RunResult) {
	for _, res := range results {
		if res.Mem == nil {
			fmt.Fprintf(out, "# mem %s/%s: no engine report (sim backend with -timing only)\n",
				res.Scenario, res.Spec.Name)
			continue
		}
		m := res.Mem
		fmt.Fprintf(out, "# mem %s/%s: n=%d arena=%s state=%s staging=%s total=%s (%.1f bytes/node)\n",
			res.Scenario, res.Spec.Name, m.Nodes,
			fmtBytes(m.ArenaBytes), fmtBytes(m.StateBytes), fmtBytes(m.StagingBytes),
			fmtBytes(m.Total()), m.BytesPerNode)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(out, "# mem process: heapAlloc=%s heapSys=%s (peak proxy) totalAlloc=%s numGC=%d\n",
		fmtBytes(int64(ms.HeapAlloc)), fmtBytes(int64(ms.HeapSys)),
		fmtBytes(int64(ms.TotalAlloc)), ms.NumGC)
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// serveDebug binds a diagnostics listener for an in-flight run:
// metrics scrape plus trace dump.
func serveDebug(addr string, inst scenario.Instrumentation) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", inst.Telemetry.Handler())
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = inst.Trace.WriteJSON(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}

// writeSeriesTable renders cycle-aligned series as an aligned table.
func writeSeriesTable(out io.Writer, series []metrics.Series) error {
	headers := make([]string, 0, len(series)+1)
	headers = append(headers, "cycle")
	cycles := map[int]bool{}
	for _, s := range series {
		headers = append(headers, s.Name)
		for _, p := range s.Points {
			cycles[p.Cycle] = true
		}
	}
	order := make([]int, 0, len(cycles))
	for c := range cycles {
		order = append(order, c)
	}
	sort.Ints(order)
	tab := metrics.NewTable(headers...)
	for _, c := range order {
		row := make([]any, 0, len(series)+1)
		row = append(row, c)
		for _, s := range series {
			if v, ok := s.At(c); ok {
				row = append(row, v)
			} else {
				row = append(row, "")
			}
		}
		tab.AddRow(row...)
	}
	_, err := tab.WriteTo(out)
	return err
}

// readSummaryFile loads one benchmark artifact — a raw sweep results
// file or a consolidated summary — as summary records.
func readSummaryFile(path string) ([]scenario.SummaryRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := scenario.ReadSummaryRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// runCompare diffs the timing of two result files run for run, so the
// BENCH_*.json artifacts of successive builds become an actual perf
// trajectory: cycles/sec and wall time per scenario, with deltas, and
// an optional regression gate.
func runCompare(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench compare", flag.ContinueOnError)
	fs.SetOutput(errOut)
	failAbove := fs.Float64("fail-above", 0,
		"fail when the MEDIAN cycles/sec drop across gated runs exceeds this percentage, or when old runs are missing from the new artifact (0 = report only); the median is used because a code regression slows most runs while machine noise swings individual runs both ways")
	minWallMS := fs.Float64("min-wall-ms", 0,
		"only gate runs whose baseline wall time is at least this many ms; shorter runs are reported but their timing is scheduling noise, not signal (missing-run detection still covers them)")
	// Accept the two file names before the flags (the natural word
	// order) or after them.
	var files []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		files, args = append(files, args[0]), args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files = append(files, fs.Args()...)
	if len(files) != 2 {
		return fmt.Errorf("compare needs exactly two result files (old.json new.json), got %d", len(files))
	}
	oldRecs, err := readSummaryFile(files[0])
	if err != nil {
		return err
	}
	newRecs, err := readSummaryFile(files[1])
	if err != nil {
		return err
	}
	oldByKey := make(map[string]scenario.SummaryRecord, len(oldRecs))
	for _, r := range oldRecs {
		oldByKey[r.Key()] = r
	}
	tab := metrics.NewTable("run", "n", "old c/s", "new c/s", "Δc/s%", "old ms", "new ms", "Δms%")
	var worst float64
	worstKey := ""
	var gatedDrops []float64
	matched, newOnly, untimed := 0, 0, 0
	for _, nr := range newRecs {
		or, ok := oldByKey[nr.Key()]
		if !ok {
			newOnly++
			continue
		}
		matched++
		delete(oldByKey, nr.Key())
		if or.CyclesPerSec == 0 || nr.CyclesPerSec == 0 {
			untimed++
			continue
		}
		dCPS := 100 * (nr.CyclesPerSec - or.CyclesPerSec) / or.CyclesPerSec
		dMS := 100 * (nr.WallMS - or.WallMS) / or.WallMS
		tab.AddRow(nr.Key(), nr.N,
			fmt.Sprintf("%.1f", or.CyclesPerSec), fmt.Sprintf("%.1f", nr.CyclesPerSec),
			fmt.Sprintf("%+.1f", dCPS),
			fmt.Sprintf("%.1f", or.WallMS), fmt.Sprintf("%.1f", nr.WallMS),
			fmt.Sprintf("%+.1f", dMS))
		if or.WallMS < *minWallMS {
			continue // too short to time: scheduling noise dominates
		}
		gatedDrops = append(gatedDrops, -dCPS)
		if drop := -dCPS; drop > worst {
			worst, worstKey = drop, nr.Key()
		}
	}
	if _, err := tab.WriteTo(out); err != nil {
		return err
	}
	// Whatever is left in oldByKey vanished from the new artifact: lost
	// coverage must be visible (and, under a gate, fatal — a regression
	// hidden by dropping its run is still a regression).
	lost := make([]string, 0, len(oldByKey))
	for key := range oldByKey {
		lost = append(lost, key)
	}
	sort.Strings(lost)
	fmt.Fprintf(out, "matched %d runs (%d without timing, %d only in %s)\n",
		matched, untimed, newOnly, files[1])
	medianDrop := median(gatedDrops)
	if *minWallMS > 0 {
		fmt.Fprintf(out, "gating %d run(s) with baseline wall time >= %.0f ms", len(gatedDrops), *minWallMS)
		if len(gatedDrops) > 0 {
			fmt.Fprintf(out, " (median Δc/s %+.1f%%, worst drop %.1f%% at %s)", -medianDrop, worst, worstKey)
		}
		fmt.Fprintln(out)
	}
	if len(lost) > 0 {
		fmt.Fprintf(out, "MISSING from %s (%d): %s\n", files[1], len(lost), strings.Join(lost, " "))
	}
	if *failAbove > 0 {
		if len(lost) > 0 {
			return fmt.Errorf("perf gate: %d run(s) present in %s are missing from %s: %s",
				len(lost), files[0], files[1], strings.Join(lost, " "))
		}
		if len(gatedDrops) > 0 && medianDrop > *failAbove {
			return fmt.Errorf("perf regression: median cycles/sec drop %.1f%% across %d gated run(s) exceeds threshold %.1f%% (worst: %s, %.1f%%)",
				medianDrop, len(gatedDrops), *failAbove, worstKey, worst)
		}
	}
	return nil
}

// median returns the middle value of vs (mean of the two middle values
// for even lengths); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runSummarize consolidates one or more result files into the stable
// cross-PR summary shape (see scenario.SummaryRecord).
func runSummarize(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench summarize", flag.ContinueOnError)
	fs.SetOutput(errOut)
	outPath := fs.String("out", "", "write the summary to a file instead of stdout")
	var files []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		files, args = append(files, args[0]), args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files = append(files, fs.Args()...)
	if len(files) == 0 {
		return fmt.Errorf("summarize needs at least one result file")
	}
	sets := make([][]scenario.SummaryRecord, 0, len(files))
	for _, path := range files {
		recs, err := readSummaryFile(path)
		if err != nil {
			return err
		}
		sets = append(sets, recs)
	}
	dst := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	return scenario.WriteSummaryJSON(dst, scenario.MergeSummaries(sets...))
}

// runSweep expands and executes a scenario grid.
func runSweep(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scenarios  = fs.String("scenarios", "all", "comma-separated scenario names, or 'all'")
		family     = fs.String("family", "", "only sweep scenarios matching this name or tag (e.g. chaos)")
		replicas   = fs.Int("replicas", 1, "seed replicas per spec")
		scale      = fs.Float64("scale", 1, "population/cycle scale in (0,1]; 1 = paper scale")
		seed       = fs.Int64("seed", 1, "base seed for per-run seed derivation")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores; live backend defaults to 2)")
		simWorkers = fs.Int("simworkers", 0, "per-run simulator compute workers (0 = spec value; results are identical at any count)")
		backend    = fs.String("backend", "sim", "execution backend: sim|live ('all' scenarios auto-filter to the backend)")
		format     = fs.String("format", "json", "output format: json|csv")
		timing     = fs.Bool("timing", true, "include wall time and cycles/sec (disable for byte-identical output)")
		outPath    = fs.String("out", "", "write output to a file instead of stdout")
		quiet      = fs.Bool("quiet", false, "suppress per-run progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep takes flags only, got %q", fs.Args())
	}
	g := scenario.Grid{Replicas: *replicas, Scale: *scale, BaseSeed: *seed}
	var be scenario.Backend
	if *scenarios != "all" && *scenarios != "" {
		g.Scenarios = strings.Split(*scenarios, ",")
		b, err := resolveBackend(*backend, g.Scenarios)
		if err != nil {
			return err
		}
		be = b
	} else {
		// "all" means every scenario the backend can execute.
		b, err := scenario.BackendByName(*backend)
		if err != nil {
			return err
		}
		be = b
		for _, sc := range scenario.All() {
			if sc.SupportsBackend(be.Name()) {
				g.Scenarios = append(g.Scenarios, sc.Name)
			}
		}
	}
	if *family != "" {
		kept := g.Scenarios[:0]
		for _, name := range g.Scenarios {
			sc, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			if sc.HasTag(*family) {
				kept = append(kept, name)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no selected scenario matches family %q (see 'slicebench list')", *family)
		}
		g.Scenarios = kept
	}
	runs, err := g.Expand()
	if err != nil {
		return err
	}
	if *simWorkers > 0 {
		for i := range runs {
			runs[i].Spec.SimWorkers = *simWorkers
		}
	}
	onResult := func(res scenario.RunResult) {
		if !*quiet {
			fmt.Fprintln(errOut, res.Summary())
		}
	}
	r := scenario.Runner{Workers: liveWorkers(*workers, be), DisableTiming: !*timing, Backend: be}
	results := r.Sweep(runs, onResult)
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			failed++
		}
	}
	dst := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "json":
		err = scenario.WriteJSON(dst, results)
	case "csv":
		err = scenario.WriteCSV(dst, results)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, len(results))
	}
	return nil
}
