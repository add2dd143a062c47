package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// ratioBound gates one dimensionless metric of a baseline row. A factor
// below 1 is a floor (measured ≥ factor·committed, for speedups); above
// 1 it is a ceiling (measured ≤ factor·committed, for fill ratios).
// Gating ratios measured in one run, never absolute ns, keeps every gate
// stable across machines of different speed.
type ratioBound[B, R any] struct {
	metric    string // named in failure messages, e.g. "speedup"
	factor    float64
	decimals  int // precision of the printed ratios
	committed func(B) float64
	measured  func(R) float64
}

// speedupFloor is the bound every timing sweep uses: the measured
// speedup must stay above 80% of the committed one.
func speedupFloor[B, R any](metric string, committed func(B) float64, measured func(R) float64) ratioBound[B, R] {
	return ratioBound[B, R]{metric: metric, factor: 0.8, decimals: 2, committed: committed, measured: measured}
}

// ratioGate is the CI regression gate behind every bearbench -baseline
// flag: a BENCH_*.json baselines file, keyed rows and per-metric bounds.
type ratioGate[B, R any] struct {
	what        string // sweep name in read errors, e.g. "kernel"
	baselineKey func(B) string
	resultKey   func(R) string
	bounds      []ratioBound[B, R]
}

// check reads the "baselines" array of the file at path, runs measure
// (which may use the baselines to choose what to re-measure), and
// applies every bound to every baseline row, in file order. A baseline
// whose key was not measured fails too, so a stale row cannot pass
// silently.
func (g ratioGate[B, R]) check(path string, measure func([]B) ([]R, error)) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench: reading %s baselines: %w", g.what, err)
	}
	var file struct {
		Baselines []B `json:"baselines"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("bench: parsing %s baselines %s: %w", g.what, path, err)
	}
	if len(file.Baselines) == 0 {
		return fmt.Errorf("bench: no baselines in %s", path)
	}
	results, err := measure(file.Baselines)
	if err != nil {
		return err
	}
	measured := make(map[string]R, len(results))
	for _, r := range results {
		measured[g.resultKey(r)] = r
	}
	var failures []error
	for _, b := range file.Baselines {
		key := g.baselineKey(b)
		r, ok := measured[key]
		if !ok {
			failures = append(failures, fmt.Errorf("%s: baseline present but not measured", key))
			continue
		}
		for _, bd := range g.bounds {
			if err := bd.apply(key, b, r); err != nil {
				failures = append(failures, err)
			}
		}
	}
	return errors.Join(failures...)
}

func (bd ratioBound[B, R]) apply(key string, b B, r R) error {
	want, got := bd.committed(b), bd.measured(r)
	limit := bd.factor * want
	failed, kind, word := got < limit, "floor", "below"
	if bd.factor > 1 {
		failed, kind, word = got > limit, "ceiling", "above"
	}
	if !failed {
		return nil
	}
	p := bd.decimals
	return fmt.Errorf("%s: %s %.*fx %s %s %.*fx (%.0f%% of committed %.*fx)",
		key, bd.metric, p, got, word, kind, p, limit, 100*bd.factor, p, want)
}

// minOfBatchesNs times each op with the interleaved min-of-batches
// protocol: the batch size is calibrated to ~2ms on ops[0] (the
// baseline), then the ops are timed round-robin — one batch each per
// round, nine rounds — and each reports its best batch in ns per call.
// The minimum strips scheduler noise far better than a mean, and the
// interleaving matters on shared machines: timing each op's batches back
// to back lets one slow host phase land entirely on one op and fabricate
// (or hide) a speedup ratio.
func minOfBatchesNs(ops []func()) []float64 {
	const batchTarget = 2 * time.Millisecond
	const rounds = 9
	reps := 1
	for reps < 1<<22 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			ops[0]()
		}
		if time.Since(start) >= batchTarget {
			break
		}
		reps *= 2
	}
	best := make([]float64, len(ops))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for b := 0; b < rounds; b++ {
		for i, op := range ops {
			start := time.Now()
			for r := 0; r < reps; r++ {
				op()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(reps); ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best
}
