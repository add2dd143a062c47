package main

import (
	"fmt"
	"math/rand"
	"time"

	"bear"
)

// runSolveMix is the in-process closed loop: one caller, uniform seeds,
// QueryTo / QueryBatchTo / QueryTopK on the three graphs, no HTTP and no
// cache. After the timed loop every run exercises and checks the update
// path (dynamicProbe).
func runSolveMix(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	ds, err := loadDatasets(rng)
	if err != nil {
		return nil, err
	}
	orcs := make([]*oracle, len(ds))
	for i, d := range ds {
		if orcs[i], err = newOracle(d.g, sampleSeeds(d, rng)); err != nil {
			return nil, err
		}
	}
	led := newLedger()
	base := liveHeapMB()
	var graphs []*coreGraph
	var times []float64
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		graphs = nil
		start := time.Now()
		for i, d := range ds {
			dyn, err := bear.NewDynamic(d.g, bear.Options{})
			if err != nil {
				return nil, fmt.Errorf("preprocess %s: %w", d.name, err)
			}
			if _, err := dyn.Query(0); err != nil {
				return nil, fmt.Errorf("first query on %s: %w", d.name, err)
			}
			graphs = append(graphs, &coreGraph{name: d.name, dyn: dyn, orc: orcs[i]})
		}
		times = append(times, time.Since(start).Seconds())
	}
	v := map[string]float64{"setup_s": median(times), "heap_mb": liveHeapMB() - base}

	loop := newCoreLoop(graphs)

	loop.run(rng, warmup, led)
	loop.reset()
	if !cfg.trace {
		_, elapsed := loop.run(rng, cfg.measure(), led)
		var lat []float64
		for _, s := range loop.samples {
			lat = append(lat, ms(s.dur))
		}
		v["read_p50_ms"] = percentile(lat, 0.5)
		v["seeds_per_s"] = float64(loop.seeds) / elapsed.Seconds()
	} else {
		loop.traceEvery = traceEvery
		loop.run(rng, cfg.measure(), led)
		loop.coreMetrics(v)
		v["trace.overhead_ratio"] = loop.overhead()
		var plain []float64
		for _, s := range loop.samples {
			if !s.traced {
				plain = append(plain, ms(s.dur))
			}
		}
		v["read_p99_ms"] = percentile(plain, 0.99)
		for _, g := range graphs {
			kernelMetrics(v, g.name, g.dyn.Precomputed())
			setupMetrics(v, g.name, g.dyn.Precomputed())
		}
	}
	loop.checkAll(led)
	if err := dynamicProbe(v, ds, rng, led, cfg.trace); err != nil {
		return nil, err
	}
	return finish(led, v), nil
}
