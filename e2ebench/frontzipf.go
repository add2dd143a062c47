package main

import (
	"math/rand"
	"net/http"
	"time"
)

// front-zipf offered load and mix (README.md gives the basis of each).
const (
	frontRate = 400.0 // nominal offered rate, operations/s
	// The result caches take ~30 s to fill at the nominal rate. The
	// warm-up fills them at frontFillRate for frontFill, then settles at
	// the nominal rate for warmup, so the measured phase is steady state.
	frontFillRate = 5 * frontRate
	frontFill     = 8 * time.Second
	// Mix by count; the rest are /candidates.
	queryShare   = 0.40
	topkShare    = 0.40
	batchShare   = 0.10
	fanoutSeeds  = 16 // seeds per /batch and /candidates
	topKPerQuery = 10
)

// runFrontZipf is the production read path: Zipf-skewed reads over TCP
// into a bearfront in front of two bearserve shards.
func runFrontZipf(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	ds, err := loadDatasets(rng)
	if err != nil {
		return nil, err
	}
	oracles := make(map[string]*oracle, len(ds))
	for _, d := range ds {
		if oracles[d.name], err = newOracle(d.g, sampleSeeds(d, rng)); err != nil {
			return nil, err
		}
	}

	b := &httpBench{cfg: cfg, client: newClient(cfg.workers), led: newLedger()}
	if cfg.trace {
		b.tr = newTracer()
		b.dep, err = startFronted(b.tr.wrapShard, transport{t: b.tr, base: http.DefaultTransport}, b.tr.wrapFront)
	} else {
		b.dep, err = startFronted(nil, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	defer b.dep.close()

	b.check = (&verifier{oracles: oracles}).check
	b.mix = func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			x := rng.Float64()
			d := ds[rng.Intn(len(ds))]
			o := op{graph: d.name, k: topKPerQuery}
			switch {
			case x < queryShare:
				o.kind, o.seeds = "query", []int{d.zipfSeed(rng)}
			case x < queryShare+topkShare:
				o.kind, o.seeds = "topk", []int{d.zipfSeed(rng)}
			default:
				o.kind = "batch"
				if x >= queryShare+topkShare+batchShare {
					o.kind = "candidates"
				}
				o.seeds = make([]int, fanoutSeeds)
				for j := range o.seeds {
					o.seeds[j] = d.zipfSeed(rng)
				}
			}
			ops[i] = o
		}
		return ops
	}

	var ups []upload
	for _, d := range ds {
		ups = append(ups, upload{name: d.name, body: matrixMarket(d.g)})
	}
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	base := liveHeapMB()
	setupS, err := b.setup(ups, rounds)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{"setup_s": setupS, "heap_mb": liveHeapMB() - base}

	b.phase(frontFillRate, frontFill, 0)
	b.phase(frontRate, warmup, 0)
	if !cfg.trace {
		nominalMetrics(v, b.phase(frontRate, cfg.measure(), 0))
		return finish(b.led, v), nil
	}
	r := b.phase(frontRate, cfg.measure(), traceEvery)
	calls, handled := b.tr.snapshot()
	if err := probeCore(v, ds, oracles, rng, b.led); err != nil {
		return nil, err
	}
	httpLayers(v, r, handled)
	frontLayers(v, r, calls, handled)
	overhead(v, r)
	return finish(b.led, v), nil
}
