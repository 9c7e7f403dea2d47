package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

// repoRoot is the repository root, two levels above this package.
var repoRoot = filepath.Join("..", "..")

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the workloads,
// metrics and bounds are published in, identical to the tables the
// command measures and compares with.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloadsAt(fullSize)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %q, want %q", spec.Command, want)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %v, the command's -seconds default is %v", spec.RunSeconds, runSeconds)
	}
}

// TestTwinRefCoversTimings checks that every workload has a positive
// reference value for every end-to-end timing the twin calibrates.
func TestTwinRefCoversTimings(t *testing.T) {
	for _, w := range workloadsAt(fullSize) {
		for _, s := range endToEnd {
			if s.Name == "heap_peak_mb" {
				continue // not a timing, so not calibrated
			}
			if v := twinRef[w.name][s.Name]; !(v > 0) {
				t.Errorf("%s: reference for %s is %v, want a positive value", w.name, s.Name, v)
			}
		}
	}
}

// TestLintClean holds the package to the repository's dhllint policy, as
// the module-wide lint test does, and to the current APIs: AddTracer and
// ScenarioDims, never the deprecated SetTracer or the three-int Scenario.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package this one imports")
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(lint.DefaultConfig(root, "repro"), []string{"repro/bench/dhlbench"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(filepath.ToSlash(d.File), "/bench/dhlbench/") {
			t.Errorf("%v", d)
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, banned := range []string{".SetTracer(", "faults.Scenario("} {
			if strings.Contains(string(src), banned) {
				t.Errorf("%s calls %s", f, strings.Trim(banned, ".("))
			}
		}
	}
}
