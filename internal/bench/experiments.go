package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"bear/internal/core"
	"bear/internal/graph"
	"bear/internal/rwr"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies dataset sizes; 1 targets a minutes-long full suite.
	Scale float64
	// Budget is the precomputed-data memory budget in bytes; exceeding it
	// is recorded as OOM, reproducing the omitted bars of Figures 1 and 5.
	// The default (128 MiB at scale 1) is chosen so the same methods fail
	// in the same places as on the paper's 16 GB machine.
	Budget int64
	// QuerySeeds is the number of random single-seed queries timed per
	// method (the paper uses 1000 on full-size graphs).
	QuerySeeds int
	// AccuracySeeds is the number of seeds used for cosine/L2 accuracy.
	AccuracySeeds int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Budget == 0 {
		c.Budget = int64(128 << 20)
	}
	if c.QuerySeeds == 0 {
		c.QuerySeeds = 20
	}
	if c.AccuracySeeds == 0 {
		c.AccuracySeeds = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) rwrOptions() rwr.Options {
	return rwr.Options{C: core.DefaultC, MemBudget: c.Budget}
}

const oomCell = "OOM"

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Run   func(Config) ([]*Table, error)
}

// Experiments lists every reproduction in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table4", Paper: "Table 4 (dataset statistics)", Run: RunTable4},
		{ID: "fig1a", Paper: "Fig 1(a)/Fig 5 (exact preprocessing time & space)", Run: RunExactPreprocess},
		{ID: "fig1b", Paper: "Fig 1(b) (exact query time)", Run: RunExactQuery},
		{ID: "fig2", Paper: "Fig 2 (nonzeros of precomputed matrices)", Run: RunNonzeros},
		{ID: "fig6", Paper: "Fig 6 (effects of drop tolerance)", Run: RunDropTolerance},
		{ID: "fig7", Paper: "Fig 7 (effects of network structure)", Run: RunStructure},
		{ID: "fig8", Paper: "Figs 8/13 (approximate trade-off)", Run: RunTradeoff},
		{ID: "fig10", Paper: "Fig 10 (PPR query time, exact methods)", Run: RunPPRQuery},
		{ID: "fig11", Paper: "Fig 11 (BEAR-Exact query time vs #seeds)", Run: RunSeedsSweep},
		{ID: "fig12", Paper: "Fig 12 (approx preprocessing time)", Run: RunApproxPreprocess},
		{ID: "ablation", Paper: "design-choice ablations (Observation 1, Alg 1 line 7, wave size k)", Run: RunAblation},
		{ID: "scaling", Paper: "supplementary: BEAR cost vs graph size at fixed density", Run: RunScaling},
		{ID: "amortize", Paper: "Section 4.3 total-cost claim: break-even query count vs iterative", Run: RunAmortize},
		{ID: "refine", Paper: "accuracy guardrail: iterative refinement vs drop tolerance", Run: RunRefine},
		{ID: "kernels", Paper: "kernel storage layouts: SpMV on the spoke-block factors (BENCH_kernels.json)", Run: RunKernels},
		{ID: "rebuild", Paper: "rebuild paths: full vs incremental dirty-block surgery (BENCH_rebuild.json)", Run: RunRebuild},
		{ID: "orderings", Paper: "ordering engines: slashburn vs mindeg four-way sweep (BENCH_orderings.json)", Run: RunOrderings},
		{ID: "topk", Paper: "top-k: block-pruned exact solve vs full solve (BENCH_topk.json)", Run: RunTopK},
	}
}

// ExperimentByID looks up an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment and concatenates the tables.
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, e := range Experiments() {
		ts, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: experiment %s: %w", e.ID, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}

// RunTable4 reproduces Table 4: structural statistics and the nonzero
// counts of BEAR's precomputed matrices for every dataset.
func RunTable4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Table 4: dataset statistics and BEAR-Exact precomputed nonzeros",
		Note:    fmt.Sprintf("synthetic substitutes at scale %g; columns follow the paper", cfg.Scale),
		Headers: []string{"dataset", "n", "m", "n2", "sum(n1i^2)", "|H|", "|H12|+|H21|", "|L1i|+|U1i|", "|L2i|+|U2i|"},
	}
	all := append(Datasets(), RMATFamily(cfg.Scale)...)
	for _, d := range all {
		g := d.Make(cfg.Scale)
		p, err := core.Preprocess(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", d.Name, err)
		}
		st := p.Stats
		t.AddRow(d.Name, st.N, st.M, st.N2, st.SumSqBlocks, st.NNZH, st.NNZH12H21, st.NNZL1U1, st.NNZL2U2)
	}
	return []*Table{t}, nil
}

// exactRun preprocesses one method on one dataset, returning nil solver on
// an out-of-memory outcome.
func exactRun(m Method, g *graph.Graph, opts rwr.Options) (rwr.Solver, time.Duration, error) {
	start := time.Now()
	s, err := m.Preprocess(g, opts)
	elapsed := time.Since(start)
	if errors.Is(err, rwr.ErrOutOfMemory) {
		return nil, elapsed, nil
	}
	if err != nil {
		return nil, elapsed, err
	}
	// A method may only discover its footprint after the fact.
	if opts.MemBudget > 0 && HasPreprocessing(m) && s.Bytes() > opts.MemBudget {
		return nil, elapsed, nil
	}
	return s, elapsed, nil
}

// RunExactPreprocess reproduces Fig 1(a) (preprocessing time) and Fig 5
// (space for preprocessed data) for the exact methods.
func RunExactPreprocess(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	timeT := &Table{
		Title:   "Fig 1(a): preprocessing time of exact methods",
		Note:    "OOM marks methods whose precomputed data exceeds the memory budget (omitted bars in the paper)",
		Headers: []string{"dataset", "method", "preprocess"},
	}
	spaceT := &Table{
		Title:   "Fig 5: space for preprocessed data (bytes)",
		Headers: []string{"dataset", "method", "bytes", "nnz"},
	}
	for _, d := range Datasets() {
		g := d.Make(cfg.Scale)
		for _, m := range ExactMethods() {
			if !HasPreprocessing(m) {
				continue
			}
			s, elapsed, err := exactRun(m, g, cfg.rwrOptions())
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", d.Name, m.Name(), err)
			}
			if s == nil {
				timeT.AddRow(d.Name, m.Name(), oomCell)
				spaceT.AddRow(d.Name, m.Name(), oomCell, oomCell)
				continue
			}
			timeT.AddRow(d.Name, m.Name(), elapsed)
			spaceT.AddRow(d.Name, m.Name(), s.Bytes(), s.NNZ())
		}
	}
	return []*Table{timeT, spaceT}, nil
}

// RunExactQuery reproduces Fig 1(b): mean single-seed query time of the
// exact methods (iterative included).
func RunExactQuery(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 1(b): query time of exact methods",
		Note:    fmt.Sprintf("mean over %d random seeds", cfg.QuerySeeds),
		Headers: []string{"dataset", "method", "query"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range Datasets() {
		g := d.Make(cfg.Scale)
		seeds := RandomSeeds(g.N(), cfg.QuerySeeds, rng)
		for _, m := range ExactMethods() {
			s, _, err := exactRun(m, g, cfg.rwrOptions())
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", d.Name, m.Name(), err)
			}
			if s == nil {
				t.AddRow(d.Name, m.Name(), oomCell)
				continue
			}
			mean, _, err := QueryTiming(s, g.N(), seeds)
			if err != nil {
				return nil, fmt.Errorf("%s/%s query: %w", d.Name, m.Name(), err)
			}
			t.AddRow(d.Name, m.Name(), mean)
		}
	}
	return []*Table{t}, nil
}

// dropTolerances returns the ξ ladder of Figures 2, 6, 8 and 13:
// {0, n⁻², n⁻¹, n⁻¹ᐟ², n⁻¹ᐟ⁴}.
func dropTolerances(n int) []struct {
	Label string
	Xi    float64
} {
	fn := float64(n)
	return []struct {
		Label string
		Xi    float64
	}{
		{"0", 0},
		{"n^-2", 1 / (fn * fn)},
		{"n^-1", 1 / fn},
		{"n^-1/2", 1 / math.Sqrt(fn)},
		{"n^-1/4", 1 / math.Pow(fn, 0.25)},
	}
}

// RunNonzeros reproduces Fig 2: the number of nonzeros in each method's
// precomputed matrices on the Routing-analogue dataset.
func RunNonzeros(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	d, err := DatasetByName("routing")
	if err != nil {
		return nil, err
	}
	g := d.Make(cfg.Scale)
	n := g.N()
	t := &Table{
		Title:   "Fig 2: nonzeros of precomputed matrices (routing analogue)",
		Note:    fmt.Sprintf("n=%d m=%d; budget disabled so dense methods report their true size", n, g.M()),
		Headers: []string{"method", "exact", "nnz"},
	}
	opts := cfg.rwrOptions()
	opts.MemBudget = 0 // Fig 2 reports sizes even for the dense methods
	type entry struct {
		m     Method
		exact string
		opts  rwr.Options
	}
	entries := []entry{
		{rwr.Inversion{}, "exact", opts},
		{rwr.QRDecomp{}, "exact", opts},
		{rwr.LUDecomp{}, "exact", opts},
		{rwr.BLin{}, "approx", opts},
		{rwr.NBLin{}, "approx", opts},
		{BearMethod{Label: "bear-exact"}, "exact", opts},
	}
	for _, lvl := range dropTolerances(n)[1:4] { // ξ ∈ {n⁻², n⁻¹, n⁻¹ᐟ²} as in Fig 2
		o := opts
		o.DropTol = lvl.Xi
		entries = append(entries, entry{BearMethod{Label: "bear-approx ξ=" + lvl.Label}, "approx", o})
	}
	for _, e := range entries {
		s, err := e.m.Preprocess(g, e.opts)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", e.m.Name(), err)
		}
		t.AddRow(e.m.Name(), e.exact, s.NNZ())
	}
	return []*Table{t}, nil
}

// referenceVectors computes exact RWR vectors for accuracy comparisons,
// factoring H once.
func referenceVectors(g *graph.Graph, seeds []int) ([][]float64, error) {
	solver, err := rwr.NewExactSolver(g, core.DefaultC)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(seeds))
	q := make([]float64, g.N())
	for i, s := range seeds {
		q[s] = 1
		r, err := solver.Solve(q)
		q[s] = 0
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// accuracyOf runs the solver on each seed and returns mean cosine and mean
// L2 error against the reference vectors.
func accuracyOf(s rwr.Solver, n int, seeds []int, refs [][]float64) (cos, l2 float64, err error) {
	q := make([]float64, n)
	for i, seed := range seeds {
		q[seed] = 1
		r, qerr := s.Query(q)
		q[seed] = 0
		if qerr != nil {
			return 0, 0, qerr
		}
		cos += Cosine(r, refs[i])
		l2 += L2Error(r, refs[i])
	}
	k := float64(len(seeds))
	return cos / k, l2 / k, nil
}

// RunDropTolerance reproduces Fig 6: the effect of ξ on BEAR-Approx's
// space, query time, and accuracy.
func RunDropTolerance(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 6: effects of drop tolerance on BEAR-Approx",
		Headers: []string{"dataset", "xi", "bytes", "nnz", "query", "cosine", "l2"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, name := range []string{"routing", "coauthor", "web"} {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		seeds := RandomSeeds(g.N(), cfg.AccuracySeeds, rng)
		refs, err := referenceVectors(g, seeds)
		if err != nil {
			return nil, err
		}
		timingSeeds := RandomSeeds(g.N(), cfg.QuerySeeds, rng)
		for _, lvl := range dropTolerances(g.N()) {
			opts := cfg.rwrOptions()
			opts.DropTol = lvl.Xi
			opts.MemBudget = 0
			s, err := BearMethod{}.Preprocess(g, opts)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s ξ=%s: %w", name, lvl.Label, err)
			}
			mean, _, err := QueryTiming(s, g.N(), timingSeeds)
			if err != nil {
				return nil, err
			}
			cos, l2, err := accuracyOf(s, g.N(), seeds, refs)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, lvl.Label, s.Bytes(), s.NNZ(), mean, cos, l2)
		}
	}
	return []*Table{t}, nil
}

// RunStructure reproduces Fig 7: BEAR-Exact's cost on R-MAT graphs of equal
// size but increasingly strong hub-and-spoke structure.
func RunStructure(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 7: effect of network structure (R-MAT p_ul sweep)",
		Note:    "stronger hub-and-spoke (higher p_ul) should shrink every column",
		Headers: []string{"dataset", "n", "m", "n2", "sum(n1i^2)", "preprocess", "query", "bytes"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range RMATFamily(cfg.Scale) {
		g := d.Make(cfg.Scale)
		start := time.Now()
		p, err := core.Preprocess(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", d.Name, err)
		}
		prep := time.Since(start)
		s := &bearSolver{p: p}
		seeds := RandomSeeds(g.N(), cfg.QuerySeeds, rng)
		mean, _, err := QueryTiming(s, g.N(), seeds)
		if err != nil {
			return nil, err
		}
		t.AddRow(d.Name, p.Stats.N, p.Stats.M, p.Stats.N2, p.Stats.SumSqBlocks, prep, mean, s.Bytes())
	}
	return []*Table{t}, nil
}

// RunTradeoff reproduces Figs 8/13: accuracy versus query time and space
// for the approximate methods, sweeping ξ (BEAR-Approx, B_LIN, NB_LIN) and
// ε_b (RPPR, BRPPR).
func RunTradeoff(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figs 8/13: approximate-method trade-off (accuracy vs time vs space)",
		Note:    "space is '-' for RPPR/BRPPR, which keep no precomputed data",
		Headers: []string{"dataset", "method", "param", "query", "bytes", "cosine", "l2"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	epsBs := []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5}
	for _, name := range []string{"routing", "web"} {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		n := g.N()
		seeds := RandomSeeds(n, cfg.AccuracySeeds, rng)
		refs, err := referenceVectors(g, seeds)
		if err != nil {
			return nil, err
		}
		timingSeeds := RandomSeeds(n, cfg.QuerySeeds, rng)

		addRow := func(m Method, param string, opts rwr.Options, showSpace bool) error {
			s, err := m.Preprocess(g, opts)
			if errors.Is(err, rwr.ErrOutOfMemory) {
				t.AddRow(name, m.Name(), param, oomCell, oomCell, oomCell, oomCell)
				return nil
			}
			if err != nil {
				return fmt.Errorf("fig8 %s/%s: %w", name, m.Name(), err)
			}
			mean, _, err := QueryTiming(s, n, timingSeeds)
			if err != nil {
				return err
			}
			cos, l2, err := accuracyOf(s, n, seeds, refs)
			if err != nil {
				return err
			}
			space := "-"
			if showSpace {
				space = fmt.Sprintf("%d", s.Bytes())
			}
			t.Rows = append(t.Rows, []string{name, m.Name(), param,
				formatDuration(mean), space, formatFloat(cos), formatFloat(l2)})
			return nil
		}

		for _, lvl := range dropTolerances(n) {
			opts := cfg.rwrOptions()
			opts.DropTol = lvl.Xi
			for _, m := range []Method{BearMethod{Label: "bear-approx"}, rwr.BLin{}, rwr.NBLin{}} {
				if err := addRow(m, "ξ="+lvl.Label, opts, true); err != nil {
					return nil, err
				}
			}
		}
		for _, eb := range epsBs {
			opts := cfg.rwrOptions()
			opts.EpsB = eb
			for _, m := range []Method{rwr.RPPR{}, rwr.BRPPR{}} {
				if err := addRow(m, fmt.Sprintf("εb=%g", eb), opts, false); err != nil {
					return nil, err
				}
			}
		}
	}
	return []*Table{t}, nil
}

// RunPPRQuery reproduces Fig 10: personalized-PageRank query time of the
// exact methods as the number of seeds grows.
func RunPPRQuery(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 10: PPR query time of exact methods vs #seeds",
		Headers: []string{"dataset", "method", "seeds", "query"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seedCounts := []int{1, 10, 100, 1000}
	for _, name := range []string{"routing", "web"} {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		for _, m := range ExactMethods() {
			s, _, err := exactRun(m, g, cfg.rwrOptions())
			if err != nil {
				return nil, fmt.Errorf("fig10 %s/%s: %w", name, m.Name(), err)
			}
			for _, k := range seedCounts {
				if s == nil {
					t.AddRow(name, m.Name(), k, oomCell)
					continue
				}
				q := MultiSeedQuery(g.N(), RandomSeeds(g.N(), k, rng))
				reps := 3
				start := time.Now()
				for rep := 0; rep < reps; rep++ {
					if _, err := s.Query(q); err != nil {
						return nil, err
					}
				}
				t.AddRow(name, m.Name(), k, time.Since(start)/time.Duration(reps))
			}
		}
	}
	return []*Table{t}, nil
}

// RunSeedsSweep reproduces Fig 11: BEAR-Exact's query time as the seed
// count grows, per dataset.
func RunSeedsSweep(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 11: BEAR-Exact query time vs #seeds",
		Headers: []string{"dataset", "seeds", "query"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range Datasets() {
		g := d.Make(cfg.Scale)
		s, _, err := exactRun(BearMethod{Label: "bear-exact"}, g, cfg.rwrOptions())
		if err != nil || s == nil {
			return nil, fmt.Errorf("fig11 %s: %v", d.Name, err)
		}
		for _, k := range []int{1, 10, 100, 1000} {
			if k > g.N() {
				continue
			}
			q := MultiSeedQuery(g.N(), RandomSeeds(g.N(), k, rng))
			reps := 3
			start := time.Now()
			for rep := 0; rep < reps; rep++ {
				if _, err := s.Query(q); err != nil {
					return nil, err
				}
			}
			t.AddRow(d.Name, k, time.Since(start)/time.Duration(reps))
		}
	}
	return []*Table{t}, nil
}

// RunApproxPreprocess reproduces Fig 12: preprocessing time of the
// approximate preprocessing methods (BEAR-Approx, B_LIN, NB_LIN).
func RunApproxPreprocess(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Fig 12: preprocessing time of approximate methods",
		Note:    "ξ = n⁻¹ for all methods",
		Headers: []string{"dataset", "method", "preprocess"},
	}
	for _, d := range Datasets() {
		g := d.Make(cfg.Scale)
		opts := cfg.rwrOptions()
		opts.DropTol = 1 / float64(g.N())
		for _, m := range []Method{BearMethod{Label: "bear-approx"}, rwr.BLin{}, rwr.NBLin{}} {
			s, elapsed, err := exactRun(m, g, opts)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s/%s: %w", d.Name, m.Name(), err)
			}
			if s == nil {
				t.AddRow(d.Name, m.Name(), oomCell)
				continue
			}
			t.AddRow(d.Name, m.Name(), elapsed)
		}
	}
	return []*Table{t}, nil
}

// RunRefine measures the accuracy guardrail across the ξ ladder: for each
// drop tolerance, the plain BEAR-Approx query is compared — in time, memory
// (including the retained H), residual, and cosine accuracy against an
// exact reference — with the same query answered through iterative
// refinement at tol 1e-9. The table shows what refinement buys (exact-level
// accuracy at BEAR-Approx memory cost) and what it charges (a few extra
// solves' worth of query time).
func RunRefine(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Accuracy guardrail: iterative refinement vs drop tolerance",
		Note:    "refined queries verify against the retained exact H at tol 1e-9; residuals are score-level ∞-norms, means over the accuracy seeds",
		Headers: []string{"dataset", "xi", "bytes", "query", "refined_query", "sweeps", "residual", "refined_residual", "cosine", "refined_cosine"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	const tol = 1e-9
	for _, name := range []string{"routing", "web"} {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		n := g.N()
		seeds := RandomSeeds(n, cfg.AccuracySeeds, rng)
		refs, err := referenceVectors(g, seeds)
		if err != nil {
			return nil, err
		}
		for _, lvl := range dropTolerances(n) {
			p, err := core.Preprocess(g, core.Options{DropTol: lvl.Xi, KeepH: true})
			if err != nil {
				return nil, fmt.Errorf("refine %s ξ=%s: %w", name, lvl.Label, err)
			}
			q := make([]float64, n)
			var plainT, refT time.Duration
			var sweeps int
			var resid, refResid, cos, refCos float64
			for i, seed := range seeds {
				q[seed] = 1
				start := time.Now()
				plain, err := p.Query(seed)
				plainT += time.Since(start)
				if err != nil {
					return nil, err
				}
				r, err := p.Residual(plain, q)
				if err != nil {
					return nil, err
				}
				resid += r
				start = time.Now()
				refined, stats, err := p.QueryRefined(q, tol, 0)
				refT += time.Since(start)
				if err != nil {
					return nil, err
				}
				sweeps += stats.Sweeps
				refResid += stats.Residual
				cos += Cosine(plain, refs[i])
				refCos += Cosine(refined, refs[i])
				q[seed] = 0
			}
			k := len(seeds)
			fk := float64(k)
			t.AddRow(name, lvl.Label, p.Bytes(),
				plainT/time.Duration(k), refT/time.Duration(k),
				fmt.Sprintf("%.1f", float64(sweeps)/fk),
				resid/fk, refResid/fk, cos/fk, refCos/fk)
		}
	}
	return []*Table{t}, nil
}

// SortRows orders a table's rows lexicographically; used by tests that
// need deterministic output.
func (t *Table) SortRows() {
	sort.Slice(t.Rows, func(i, j int) bool {
		for k := range t.Rows[i] {
			if t.Rows[i][k] != t.Rows[j][k] {
				return t.Rows[i][k] < t.Rows[j][k]
			}
		}
		return false
	})
}
