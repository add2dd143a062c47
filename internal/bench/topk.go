package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bear/internal/core"
)

// TopKResult is one measured (dataset, k) cell of the top-k sweep.
// Speedup is the full-solve path's ns/query divided by the block-pruned
// path's ns/query on the same seeds — > 1 means the block-pruned path is
// faster.
type TopKResult struct {
	Dataset  string  `json:"dataset"`
	K        int     `json:"k"`
	HybridNs float64 `json:"hybrid_ns_per_query"`
	FullNs   float64 `json:"full_ns_per_query"`
	Speedup  float64 `json:"speedup"`
}

// TopKBaseline is one committed speedup floor from BENCH_topk.json; the
// CI gate fails when a (dataset, k) cell's measured speedup falls more
// than 20% below it. As with the kernel gate, the dimensionless ratio
// keeps the gate stable across machines of different absolute speed.
type TopKBaseline struct {
	Dataset string  `json:"dataset"`
	K       int     `json:"k"`
	Speedup float64 `json:"speedup"`
}

// topKSweepDatasets are the benchmark families the top-k sweep runs on:
// the paper ladder's small/medium members plus the hub-heavy email
// analogue.
var topKSweepDatasets = []string{"routing", "email", "web"}

// topKSweepKs are the result sizes measured; 10 is the headline cell the
// acceptance gate cares about.
var topKSweepKs = []int{1, 10, 100}

// measureTopKSweep builds one Dynamic per dataset and times, for each k,
// the block-pruned QueryTopK path against the full-solve-then-rank path over
// the same random seeds. The two paths are interleaved round-robin —
// whole passes over the seed set — and each reports its best round, the
// same min-of-batches protocol minOfBatchesNs uses and for the same
// reason: back-to-back timing lets one slow host phase fabricate a
// speedup.
func measureTopKSweep(cfg Config) ([]TopKResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const rounds = 5
	var out []TopKResult
	for _, name := range topKSweepDatasets {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(cfg.Scale)
		dyn, err := core.NewDynamic(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("topk %s: %w", name, err)
		}
		seeds := RandomSeeds(g.N(), cfg.QuerySeeds, rng)
		for _, k := range topKSweepKs {
			if k >= g.N() {
				continue
			}
			// Warm both paths once so lazy index state (the block bounds
			// on the block-pruned side) is not charged to round 1.
			if _, err := dyn.QueryTopK(seeds[0], k); err != nil {
				return nil, fmt.Errorf("topk %s k=%d: %w", name, k, err)
			}
			if _, err := dyn.Query(seeds[0]); err != nil {
				return nil, err
			}
			bestHybrid, bestFull := math.Inf(1), math.Inf(1)
			for b := 0; b < rounds; b++ {
				start := time.Now()
				for _, seed := range seeds {
					if _, err := dyn.QueryTopK(seed, k); err != nil {
						return nil, fmt.Errorf("topk %s k=%d seed %d: %w", name, k, seed, err)
					}
				}
				if ns := float64(time.Since(start).Nanoseconds()) / float64(len(seeds)); ns < bestHybrid {
					bestHybrid = ns
				}

				start = time.Now()
				for _, seed := range seeds {
					scores, err := dyn.Query(seed)
					if err != nil {
						return nil, err
					}
					core.TopK(scores, k)
				}
				if ns := float64(time.Since(start).Nanoseconds()) / float64(len(seeds)); ns < bestFull {
					bestFull = ns
				}
			}
			out = append(out, TopKResult{
				Dataset: name, K: k,
				HybridNs: bestHybrid, FullNs: bestFull,
				Speedup: bestFull / bestHybrid,
			})
		}
	}
	return out, nil
}

// RunTopK compares the block-pruned top-k path against the
// full-solve-then-rank path (bearbench -exp topk). The committed headline
// numbers live in BENCH_topk.json.
func RunTopK(cfg Config) ([]*Table, error) {
	results, err := measureTopKSweep(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Top-k: block-pruned exact solve vs full solve",
		Note:    "interleaved min-of-5-rounds ns/query",
		Headers: []string{"dataset", "k", "hybrid ns/q", "full ns/q", "speedup"},
	}
	for _, r := range results {
		t.AddRow(r.Dataset, r.K,
			fmt.Sprintf("%.0f", r.HybridNs), fmt.Sprintf("%.0f", r.FullNs),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	return []*Table{t}, nil
}

// CheckTopK re-measures the top-k sweep and compares it against the
// baselines committed in BENCH_topk.json (bearbench -exp topk -baseline
// FILE): any (dataset, k) cell whose measured speedup falls below 80% of
// its committed speedup fails the gate.
func CheckTopK(cfg Config, baselinePath string) error {
	return ratioGate[TopKBaseline, TopKResult]{
		what:        "topk",
		baselineKey: func(b TopKBaseline) string { return fmt.Sprintf("%s/k=%d", b.Dataset, b.K) },
		resultKey:   func(r TopKResult) string { return fmt.Sprintf("%s/k=%d", r.Dataset, r.K) },
		bounds: []ratioBound[TopKBaseline, TopKResult]{speedupFloor("speedup",
			func(b TopKBaseline) float64 { return b.Speedup },
			func(r TopKResult) float64 { return r.Speedup })},
	}.check(baselinePath, func([]TopKBaseline) ([]TopKResult, error) { return measureTopKSweep(cfg) })
}
