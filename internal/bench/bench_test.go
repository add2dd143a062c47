package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bear/internal/rwr"
)

func smallConfig() Config {
	return Config{Scale: 0.05, QuerySeeds: 3, AccuracySeeds: 2, Seed: 1}
}

func TestDatasetsBuild(t *testing.T) {
	for _, d := range append(Datasets(), RMATFamily(0.05)...) {
		g := d.Make(0.05)
		if g.N() == 0 {
			t.Errorf("dataset %s is empty", d.Name)
		}
		if d.Analogue == "" {
			t.Errorf("dataset %s lacks its paper analogue note", d.Name)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, err := DatasetByName("routing"); err != nil {
		t.Fatalf("routing: %v", err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

// TestDatasetsDeterministic pins that every dataset builds the same graph,
// edge for edge, on every call: the committed benchmark baselines are only
// comparable across runs if the graphs are.
func TestDatasetsDeterministic(t *testing.T) {
	for _, d := range append(Datasets(), RMATFamily(0.1)...) {
		a, b := d.Make(0.1), d.Make(0.1)
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s: n=%d m=%d vs n=%d m=%d", d.Name, a.N(), a.M(), b.N(), b.M())
		}
		for u := 0; u < a.N(); u++ {
			da, wa := a.Out(u)
			db, wb := b.Out(u)
			if !slices.Equal(da, db) || !slices.Equal(wa, wb) {
				t.Fatalf("%s: node %d out-edges differ between builds", d.Name, u)
			}
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{Title: "demo", Note: "note", Headers: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "note", "a", "bb", "2.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
}

func TestBearMethodAdapter(t *testing.T) {
	d, _ := DatasetByName("routing")
	g := d.Make(0.05)
	s, err := BearMethod{}.Preprocess(g, rwr.Options{C: 0.05})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	r, err := rwr.SeedQuery(s, g.N(), 0)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want, err := rwr.Exact(g, 0.05, MultiSeedQuery(g.N(), []int{0}))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if Cosine(r, want) < 1-1e-12 {
		t.Fatal("BEAR adapter produced wrong scores")
	}
	if s.NNZ() <= 0 || s.Bytes() <= 0 {
		t.Fatal("adapter accounting empty")
	}
}

func TestBearMethodBudget(t *testing.T) {
	d, _ := DatasetByName("routing")
	g := d.Make(0.05)
	_, err := BearMethod{}.Preprocess(g, rwr.Options{C: 0.05, MemBudget: 10})
	if err == nil {
		t.Fatal("expected budget error")
	}
}

func TestHasPreprocessing(t *testing.T) {
	if HasPreprocessing(rwr.Iterative{}) || HasPreprocessing(rwr.RPPR{}) || HasPreprocessing(rwr.BRPPR{}) {
		t.Fatal("query-time methods flagged as preprocessing")
	}
	if !HasPreprocessing(BearMethod{}) || !HasPreprocessing(rwr.LUDecomp{}) {
		t.Fatal("preprocessing methods not flagged")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Paper == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table4", "fig1a", "fig1b", "fig2", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestRunTable4Small(t *testing.T) {
	tabs, err := RunTable4(smallConfig())
	if err != nil {
		t.Fatalf("RunTable4: %v", err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != len(Datasets())+5 {
		t.Fatalf("table4 has %d rows", len(tabs[0].Rows))
	}
}

func TestRunStructureShape(t *testing.T) {
	// The paper's Fig 7 claim: stronger hub-and-spoke structure (higher
	// p_ul) gives fewer hubs. Check n2 decreases across the sweep.
	tabs, err := RunStructure(smallConfig())
	if err != nil {
		t.Fatalf("RunStructure: %v", err)
	}
	rows := tabs[0].Rows
	if len(rows) != 5 {
		t.Fatalf("fig7 rows = %d", len(rows))
	}
	prev := 1 << 30
	for _, row := range rows {
		var n2 int
		if _, err := sscan(row[3], &n2); err != nil {
			t.Fatalf("bad n2 cell %q", row[3])
		}
		if n2 > prev {
			t.Fatalf("n2 not decreasing across p_ul sweep: %v", rows)
		}
		prev = n2
	}
}

func TestRunNonzerosSmall(t *testing.T) {
	tabs, err := RunNonzeros(smallConfig())
	if err != nil {
		t.Fatalf("RunNonzeros: %v", err)
	}
	if len(tabs[0].Rows) < 6 {
		t.Fatalf("fig2 rows = %d", len(tabs[0].Rows))
	}
}

func TestRunDropToleranceSmall(t *testing.T) {
	tabs, err := RunDropTolerance(smallConfig())
	if err != nil {
		t.Fatalf("RunDropTolerance: %v", err)
	}
	if len(tabs[0].Rows) != 3*5 { // 3 datasets × 5 tolerances
		t.Fatalf("fig6 rows = %d", len(tabs[0].Rows))
	}
}

func TestOOMShapeMatchesPaper(t *testing.T) {
	// The headline scalability claim: with a tight budget the dense
	// methods go OOM while BEAR-Exact survives.
	cfg := smallConfig()
	cfg.Scale = 0.2
	cfg.Budget = 2 << 20 // 2 MiB
	tabs, err := RunExactPreprocess(cfg)
	if err != nil {
		t.Fatalf("RunExactPreprocess: %v", err)
	}
	oom := map[string]bool{}
	ok := map[string]bool{}
	for _, row := range tabs[0].Rows {
		if row[0] != "web" {
			continue
		}
		if row[2] == oomCell {
			oom[row[1]] = true
		} else {
			ok[row[1]] = true
		}
	}
	if !ok["bear-exact"] {
		t.Fatalf("bear-exact did not survive the budget: %v", tabs[0].Rows)
	}
	if !oom["inversion"] || !oom["qr"] {
		t.Fatalf("dense methods did not OOM: oom=%v ok=%v", oom, ok)
	}
}

// sscan parses a single integer cell.
func sscan(s string, v *int) (int, error) {
	return fmt.Sscan(s, v)
}

func TestRunAllSmall(t *testing.T) {
	// Smoke-run every experiment at a tiny scale: output shape only.
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	cfg := smallConfig()
	tabs, err := RunAll(cfg)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	// One table per: table4, fig1a(2), fig1b, fig2, fig6, fig7, fig8,
	// fig10, fig11, fig12, ablation(3), scaling, amortize, refine,
	// kernels, rebuild, orderings, topk.
	if len(tabs) != 21 {
		t.Fatalf("RunAll produced %d tables, want 21", len(tabs))
	}
	for _, tab := range tabs {
		if tab.Title == "" || len(tab.Headers) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("table %q incomplete", tab.Title)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Headers) {
				t.Fatalf("table %q: row width %d vs %d headers", tab.Title, len(row), len(tab.Headers))
			}
		}
	}
}

func TestRunTradeoffAccuracyOrdering(t *testing.T) {
	// The paper's Fig 8 headline: in the accuracy-preserving ξ regime
	// (ξ ≤ n⁻¹), BEAR-Approx matches or beats the low-rank methods'
	// accuracy at every tolerance. A larger scale is needed so B_LIN has
	// real cross-partition edges to approximate.
	cfg := smallConfig()
	cfg.Scale = 0.25
	tabs, err := RunTradeoff(cfg)
	if err != nil {
		t.Fatalf("RunTradeoff: %v", err)
	}
	keep := map[string]bool{"ξ=0": true, "ξ=n^-2": true, "ξ=n^-1": true}
	cosByMethod := map[string]map[string]float64{}
	for _, row := range tabs[0].Rows {
		if row[0] != "routing" || !keep[row[2]] || row[3] == oomCell {
			continue
		}
		var cos float64
		if _, err := fmt.Sscan(row[5], &cos); err != nil {
			continue
		}
		if cosByMethod[row[2]] == nil {
			cosByMethod[row[2]] = map[string]float64{}
		}
		cosByMethod[row[2]][row[1]] = cos
	}
	for xi, byMethod := range cosByMethod {
		bear, ok := byMethod["bear-approx"]
		if !ok {
			continue
		}
		for _, m := range []string{"b_lin", "nb_lin"} {
			if other, ok := byMethod[m]; ok && bear+1e-6 < other {
				t.Fatalf("%s at %s: BEAR-Approx cosine %g below %g", m, xi, bear, other)
			}
		}
	}
}
