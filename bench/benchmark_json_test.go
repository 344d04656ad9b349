package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps the checkout's BENCHMARK.json,
// which declares what the benchmark prints, in step with what it does.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, benchmark has %s", i, decl.Workloads[i].Name, w.name)
		}
	}
}

func TestSummarizeFoldsRuns(t *testing.T) {
	dir := t.TempDir()
	tag := `{"box":{"commit":"abc","go":"go1.24.0","nproc":2,"gomaxprocs":2,"cpu":"x"},"workload":"w","seed":%d,"seconds":15,"trace":0}`
	res := `{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":%g,"unit":"s"}}}`
	var files []string
	for i, v := range []float64{1, 2, 3, 4} {
		path := dir + "/" + string(rune('a'+i))
		body := []byte(fmt.Sprintf(tag, i) + "\n" + fmt.Sprintf(res, v) + "\n")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	out := dir + "/summary.json"
	if err := summarizeMain(append([]string{"-out", out}, files...), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	m := s.Workloads["w"].Metrics["m"]
	// statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
	if m.Runs != 4 || m.Q1 != 1.25 || m.Median != 2.5 || m.Q3 != 3.75 || m.Spread != 1 || s.Box.Commit != "abc" || len(s.Workloads["w"].Seeds) != 4 {
		t.Errorf("summary %+v box %+v", m, s.Box)
	}
}
