package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type gateRow struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
	Fill    float64 `json:"fill"`
}

// testGate gates gateRow the way CheckOrderings gates the ordering sweep:
// a 1.25× ceiling on fill and a 0.8× floor on speedup.
var testGate = ratioGate[gateRow, gateRow]{
	what:        "test",
	baselineKey: func(r gateRow) string { return r.Name },
	resultKey:   func(r gateRow) string { return r.Name },
	bounds: []ratioBound[gateRow, gateRow]{
		{metric: "fill ratio", factor: 1.25, decimals: 3,
			committed: func(r gateRow) float64 { return r.Fill },
			measured:  func(r gateRow) float64 { return r.Fill }},
		speedupFloor("speedup",
			func(r gateRow) float64 { return r.Speedup },
			func(r gateRow) float64 { return r.Speedup }),
	},
}

// TestRatioGate runs the shared baseline gate against a synthetic
// baselines file: in-bound rows pass, a speedup under 80% of its
// committed value or a fill over 125% fails with the committed numbers in
// the message, and a committed row the sweep no longer measures fails.
func TestRatioGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	baselines := `{"baselines": [
		{"name": "a", "speedup": 2.0, "fill": 1.0},
		{"name": "b", "speedup": 1.0, "fill": 0.5}
	]}`
	if err := os.WriteFile(path, []byte(baselines), 0o644); err != nil {
		t.Fatal(err)
	}
	measure := func(rows ...gateRow) func([]gateRow) ([]gateRow, error) {
		return func(bs []gateRow) ([]gateRow, error) {
			if len(bs) != 2 {
				t.Fatalf("measure got %d baselines, want 2", len(bs))
			}
			return rows, nil
		}
	}
	for _, tc := range []struct {
		name     string
		measured []gateRow
		want     []string // substrings of the joined error; none means pass
	}{
		{"pass", []gateRow{{"a", 1.6, 1.25}, {"b", 3.0, 0.1}, {"extra", 0, 99}}, nil},
		{"below floor", []gateRow{{"a", 1.5, 1.0}, {"b", 1.0, 0.5}},
			[]string{"a: speedup 1.50x below floor 1.60x (80% of committed 2.00x)"}},
		{"above ceiling", []gateRow{{"a", 2.0, 1.0}, {"b", 1.0, 0.7}},
			[]string{"b: fill ratio 0.700x above ceiling 0.625x (125% of committed 0.500x)"}},
		{"missing key", []gateRow{{"a", 2.0, 1.0}},
			[]string{"b: baseline present but not measured"}},
	} {
		err := testGate.check(path, measure(tc.measured...))
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: unexpected failure: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: gate passed, want failure", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, w)
			}
		}
		if n := strings.Count(err.Error(), "\n") + 1; n != len(tc.want) {
			t.Errorf("%s: %d failures, want %d: %v", tc.name, n, len(tc.want), err)
		}
	}

	if err := os.WriteFile(path, []byte(`{"baselines": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := testGate.check(path, measure()); err == nil || !strings.Contains(err.Error(), "no baselines in") {
		t.Errorf("empty baselines: err = %v", err)
	}
}

// TestCheckAutoChoice fails exactly the cells where auto picked the leg
// that measured more than 10% slower, like the 20%-churn cells did when a
// churn cap forced a full pass.
func TestCheckAutoChoice(t *testing.T) {
	results := []RebuildResult{
		{Dataset: "a", Churn: 0.2, FullMs: 60, IncrMs: 20, AutoMode: "full", AutoFallback: "churn"},
		{Dataset: "b", Churn: 0.2, FullMs: 60, IncrMs: 20, AutoMode: "incremental"},
		{Dataset: "c", Churn: 0.5, FullMs: 20, IncrMs: 21, AutoMode: "incremental"},
		{Dataset: "d", Churn: 0.5, FullMs: 20, IncrMs: 30, AutoMode: "incremental"},
	}
	err := checkAutoChoice(results)
	if err == nil {
		t.Fatal("checkAutoChoice passed a cell where auto picked the slower leg")
	}
	msg := err.Error()
	for _, want := range []string{`a/0.2: auto picked full (fallback "churn")`, "d/0.5: auto picked incremental"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
	for _, ok := range []string{"b/0.2", "c/0.5"} {
		if strings.Contains(msg, ok) {
			t.Errorf("error %q fails cell %s, whose auto choice is within 10%%", msg, ok)
		}
	}
}
