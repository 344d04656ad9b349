package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// summary is the recorded baseline: for every workload and metric the
// median and quartiles over a set of runs, with the box they ran on.
// End-to-end metrics come from the untraced runs, per-layer ones from
// the traced runs.
type summary struct {
	Box       fingerprint                `json:"box"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Seeds       []int64                  `json:"seeds"`
	TracedSeeds []int64                  `json:"tracedSeeds,omitempty"`
	Metrics     map[string]metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3−Q1)/Median, the run-to-run spread a bound is
	// compared with.
	Spread float64 `json:"spread"`
}

// summarizeMain reads the stdout of benchmark runs (the tag line, then
// the result line, per run) from the named files and writes their
// summary as JSON.
func summarizeMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("summarize", flag.ContinueOnError)
	out := fs.String("out", "", "write the summary here instead of standard output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	type run struct {
		seed    int64
		traced  bool
		metrics map[string]metric
	}
	byWorkload := map[string][]run{}
	var s summary
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		type tagLine struct {
			Box      fingerprint `json:"box"`
			Workload string      `json:"workload"`
			Seed     int64       `json:"seed"`
			Seconds  float64     `json:"seconds"`
			Trace    int         `json:"trace"`
		}
		var tag *tagLine
		for sc.Scan() {
			line := sc.Bytes()
			var t tagLine
			var res result
			switch {
			case json.Unmarshal(line, &t) == nil && t.Workload != "":
				tag = &t
				s.Box, s.Seconds = t.Box, t.Seconds
			case json.Unmarshal(line, &res) == nil && res.Metrics != nil:
				if tag == nil {
					f.Close()
					return fmt.Errorf("%s: result line without a tag line before it", path)
				}
				if !res.Correct {
					f.Close()
					return fmt.Errorf("%s: a %s run failed its checks", path, tag.Workload)
				}
				byWorkload[tag.Workload] = append(byWorkload[tag.Workload], run{tag.Seed, tag.Trace == 1, res.Metrics})
				tag = nil
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	s.Workloads = map[string]workloadSummary{}
	for w, runs := range byWorkload {
		values := map[string][]float64{}
		units := map[string]string{}
		ws := workloadSummary{Metrics: map[string]metricSummary{}}
		for _, r := range runs {
			if r.traced {
				ws.TracedSeeds = append(ws.TracedSeeds, r.seed)
			} else {
				ws.Seeds = append(ws.Seeds, r.seed)
			}
			for name, m := range r.metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, vs := range values {
			q1, q2, q3 := quartiles(vs)
			ms := metricSummary{Unit: units[name], Runs: len(vs), Q1: q1, Median: q2, Q3: q3}
			if q2 != 0 {
				ms.Spread = (q3 - q1) / q2
			}
			ws.Metrics[name] = ms
		}
		s.Workloads[w] = ws
	}
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}
