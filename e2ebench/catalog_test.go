package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json at the repository root must describe exactly what this
// program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(b.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, catalog %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s bound %v: want (0, 0.25] and no more than setup_s's", m.Name, m.Bound)
		}
	}
	layer := perLayer()
	if len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(b.PerLayer), len(layer))
	}
	for i, m := range b.PerLayer {
		if d := layer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, catalog %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, implemented %d", names, len(workloads))
	}
}

func TestCatalogNamesAreValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if seen[d.name] {
			t.Errorf("duplicate metric %s", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || strings.Trim(d.name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("bad metric name %q", d.name)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
}

func TestRenderReportsExactlyTheModesMetrics(t *testing.T) {
	v := map[string]float64{}
	for _, d := range endToEnd {
		v[d.name] = 1
	}
	line, err := render(config{workload: "front-zipf"}, &report{attempted: 3, values: v})
	if err != nil {
		t.Fatal(err)
	}
	var out resultLine
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(endToEnd) || !out.Correct || out.Attempted != 3 {
		t.Errorf("render = %s", line)
	}
	delete(v, "read_p50_ms")
	if _, err := render(config{workload: "front-zipf"}, &report{attempted: 3, values: v}); err == nil {
		t.Errorf("a missing end-to-end metric was not an error")
	}
	// Traced: bypassed layers report 0, a missing measured layer fails.
	layer := map[string]float64{}
	for _, d := range perLayer() {
		if !isBypassed("solve-mix", d.name) {
			layer[d.name] = 2
		}
	}
	line, err = render(config{workload: "solve-mix", trace: true}, &report{attempted: 1, values: layer})
	if err != nil {
		t.Fatal(err)
	}
	out = resultLine{}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(perLayer()) || out.Metrics["cluster.hop_p50_ms"].Value != 0 {
		t.Errorf("traced render: %d metrics, hop %v", len(out.Metrics), out.Metrics["cluster.hop_p50_ms"])
	}
	delete(layer, "kernel.spmv_us.web.h12")
	if _, err := render(config{workload: "solve-mix", trace: true}, &report{attempted: 1, values: layer}); err == nil {
		t.Errorf("an unmeasured, non-bypassed layer metric was not an error")
	}
	if _, err := render(config{workload: "solve-mix"}, &report{values: v}); err == nil {
		t.Errorf("zero attempted operations was not an error")
	}
}
