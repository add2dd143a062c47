package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bear"
	"bear/internal/core"
	"bear/internal/obsv"
)

// coreGraph is one graph indexed in-process.
type coreGraph struct {
	name string
	dyn  *bear.Dynamic
	orc  *oracle
}

// Kinds of core call in the solve-mix loop.
const (
	callQuery = iota // Precomputed.QueryTo, one seed
	callBatch        // Precomputed.QueryBatchTo, batchChunk seeds
	callTopK1        // Dynamic.QueryTopK, k = 1
	callTopK10
	callTopK100
	numCallKinds
)

var topKOf = [numCallKinds]int{callTopK1: 1, callTopK10: 10, callTopK100: 100}

// batchChunk is the seeds per QueryBatchTo call, the shape of the bear
// candidates precompute.
const batchChunk = 64

type coreCall struct {
	g     int
	kind  int
	seeds []int
}

// coreMix draws n calls: graphs and seeds uniform; by count 45% single
// queries, 10% 64-seed batches and 45% top-k (k = 1, 10, 100 equally).
func coreMix(rng *rand.Rand, graphs []*coreGraph, n int) []coreCall {
	out := make([]coreCall, n)
	for i := range out {
		g := rng.Intn(len(graphs))
		nodes := graphs[g].dyn.Graph().N()
		x := rng.Float64()
		c := coreCall{g: g}
		switch {
		case x < 0.45:
			c.kind = callQuery
		case x < 0.55:
			c.kind = callBatch
		default:
			c.kind = callTopK1 + rng.Intn(3)
		}
		cnt := 1
		if c.kind == callBatch {
			cnt = batchChunk
		}
		c.seeds = make([]int, cnt)
		for j := range c.seeds {
			c.seeds[j] = rng.Intn(nodes)
		}
		out[i] = c
	}
	return out
}

// coreSample is one timed core call.
type coreSample struct {
	g, kind int
	traced  bool
	dur     time.Duration
	stages  [3]time.Duration // forward, schur, back (traced single queries)
	pruned  bool
	solved  int
	skipped int
}

// coreLoop is the single-caller closed loop over the core calls.
type coreLoop struct {
	graphs  []*coreGraph
	dst     [][]float64 // per graph, one score vector
	batch   [][][]float64
	bws     []*core.BatchWorkspace
	samples []coreSample
	seeds   int
	calls   int
	// traceEvery > 0 attaches an obsv.Trace to every traceEvery-th call;
	// the others are the untraced control.
	traceEvery int
}

func newCoreLoop(graphs []*coreGraph) *coreLoop {
	l := &coreLoop{graphs: graphs}
	for _, g := range graphs {
		n := g.dyn.Graph().N()
		l.dst = append(l.dst, make([]float64, n))
		b := make([][]float64, batchChunk)
		for i := range b {
			b[i] = make([]float64, n)
		}
		l.batch = append(l.batch, b)
		l.bws = append(l.bws, g.dyn.Precomputed().AcquireBatchWorkspace())
	}
	return l
}

// run drives calls for d and returns the calls completed and the elapsed
// time. Samples accumulate across runs until reset.
func (l *coreLoop) run(rng *rand.Rand, d time.Duration, led *ledger) (int, time.Duration) {
	start := time.Now()
	done := 0
	for time.Since(start) < d {
		for _, c := range coreMix(rng, l.graphs, 64) {
			traced := l.traceEvery > 0 && l.calls%l.traceEvery == 0
			l.calls++
			s, res, err := l.call(c, traced)
			mismatch := false
			if err == nil {
				err = l.verify(c, res)
				mismatch = err != nil
			}
			led.record(err, mismatch)
			l.samples = append(l.samples, s)
			l.seeds += len(c.seeds)
			done++
		}
	}
	return done, time.Since(start)
}

func (l *coreLoop) reset() {
	l.samples, l.seeds, l.calls = nil, 0, 0
}

func (l *coreLoop) call(c coreCall, traced bool) (coreSample, *bear.TopKResult, error) {
	g := l.graphs[c.g]
	s := coreSample{g: c.g, kind: c.kind, traced: traced}
	ctx := context.Background()
	var tr *obsv.Trace
	if traced {
		tr = obsv.NewTrace()
		ctx = obsv.WithTrace(ctx, tr)
	}
	p := g.dyn.Precomputed()
	var res *bear.TopKResult
	var err error
	t0 := time.Now()
	switch c.kind {
	case callQuery:
		err = p.QueryToCtx(ctx, l.dst[c.g], c.seeds[0], nil)
	case callBatch:
		err = p.QueryBatchTo(ctx, l.batch[c.g][:len(c.seeds)], c.seeds, l.bws[c.g])
	default:
		res, err = g.dyn.QueryTopKCtx(ctx, c.seeds[0], topKOf[c.kind])
	}
	s.dur = time.Since(t0)
	if res != nil {
		s.pruned = res.Stats.Pruned
		s.solved, s.skipped = res.Stats.BlocksSolved, res.Stats.BlocksSkipped
	}
	if tr != nil && c.kind == callQuery {
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case obsv.SpanForwardSolve:
				s.stages[0] += sp.Dur
			case obsv.SpanSchurSolve:
				s.stages[1] += sp.Dur
			case obsv.SpanBackSolve:
				s.stages[2] += sp.Dur
			}
		}
	}
	if err != nil {
		return s, nil, fmt.Errorf("core %s call kind %d: %w", g.name, c.kind, err)
	}
	return s, res, nil
}

// verify compares the answer of c with the oracle for every sampled seed.
func (l *coreLoop) verify(c coreCall, res *bear.TopKResult) error {
	g := l.graphs[c.g]
	for j, seed := range c.seeds {
		want, ok := g.orc.vecs[seed]
		if !ok {
			continue
		}
		var err error
		switch c.kind {
		case callQuery:
			err = checkVector(l.dst[c.g], want.scores)
		case callBatch:
			err = checkVector(l.batch[c.g][j], want.scores)
		default:
			got := make([]scored, len(res.Nodes))
			for i, node := range res.Nodes {
				got[i] = scored{Node: node, Score: res.Scores[i]}
			}
			err = checkTopK(got, want, topKOf[c.kind], nil, 0, res.Stats.Pruned)
		}
		if err != nil {
			return fmt.Errorf("core %s call kind %d seed %d: %w", g.name, c.kind, seed, err)
		}
	}
	return nil
}

// checkAll runs every call kind on every sampled seed and verifies it,
// untimed: the solve-mix correctness pass.
func (l *coreLoop) checkAll(led *ledger) {
	for gi, g := range l.graphs {
		var seeds []int
		for s := range g.orc.vecs {
			seeds = append(seeds, s)
		}
		sort.Ints(seeds)
		calls := []coreCall{{g: gi, kind: callBatch, seeds: seeds}}
		for _, s := range seeds {
			for kind := callQuery; kind < numCallKinds; kind++ {
				if kind != callBatch {
					calls = append(calls, coreCall{g: gi, kind: kind, seeds: []int{s}})
				}
			}
		}
		for _, c := range calls {
			_, res, err := l.call(c, false)
			mismatch := false
			if err == nil {
				err = l.verify(c, res)
				mismatch = err != nil
			}
			led.record(err, mismatch)
		}
	}
}

// overhead is the cost of tracing: time per seed of traced calls over
// that of the untraced calls they were interleaved with.
func (l *coreLoop) overhead() float64 {
	var dur, seeds [2]float64
	for _, s := range l.samples {
		i := 0
		if s.traced {
			i = 1
		}
		dur[i] += s.dur.Seconds()
		n := 1.0
		if s.kind == callBatch {
			n = batchChunk
		}
		seeds[i] += n
	}
	return (dur[1] / seeds[1]) / (dur[0] / seeds[0])
}

// coreMetrics fills the core-layer per-layer metrics, Algorithm 2 stage
// split included, from the traced samples.
func (l *coreLoop) coreMetrics(v map[string]float64) {
	for gi, g := range l.graphs {
		var q, batch []float64
		var topk [numCallKinds][]float64
		var stages [3][]float64
		var unattributed []float64
		var topkCalls, pruned, solved, skipped float64
		for _, s := range l.samples {
			if s.g != gi || !s.traced {
				continue
			}
			switch s.kind {
			case callQuery:
				q = append(q, us(s.dur))
				sum := time.Duration(0)
				for i, d := range s.stages {
					stages[i] = append(stages[i], us(d))
					sum += d
				}
				unattributed = append(unattributed, us(s.dur-sum))
			case callBatch:
				batch = append(batch, us(s.dur)/batchChunk)
			default:
				topk[s.kind] = append(topk[s.kind], us(s.dur))
				topkCalls++
				if s.pruned {
					pruned++
				}
				solved += float64(s.solved)
				skipped += float64(s.skipped)
			}
		}
		v["core.query_p50_us."+g.name] = percentile(q, 0.5)
		v["core.query_p99_us."+g.name] = percentile(q, 0.99)
		v["core.batch_seed_us."+g.name] = median(batch)
		v["core.topk1_p50_us."+g.name] = median(topk[callTopK1])
		v["core.topk10_p50_us."+g.name] = median(topk[callTopK10])
		v["core.topk100_p50_us."+g.name] = median(topk[callTopK100])
		v["core.topk_certified_ratio."+g.name] = ratio(pruned, topkCalls)
		v["core.topk_blocks_skipped_ratio."+g.name] = ratio(skipped, solved+skipped)
		v["core.forward_solve_us."+g.name] = median(stages[0])
		v["core.schur_solve_us."+g.name] = median(stages[1])
		v["core.backsolve_us."+g.name] = median(stages[2])
		v["core.unattributed_us."+g.name] = median(unattributed)
	}
}

// probeCore measures the core, kernel and set-up layers of a front-zipf
// run in-process, on indexes built the way bearserve builds them,
// with a short traced solve-mix loop.
func probeCore(v map[string]float64, ds []*dataset, oracles map[string]*oracle, rng *rand.Rand, led *ledger) error {
	var graphs []*coreGraph
	for _, d := range ds {
		dyn, err := bear.NewDynamic(d.g, bear.Options{KeepH: true})
		if err != nil {
			return fmt.Errorf("probe preprocess %s: %w", d.name, err)
		}
		graphs = append(graphs, &coreGraph{name: d.name, dyn: dyn, orc: oracles[d.name]})
	}
	loop := newCoreLoop(graphs)
	loop.traceEvery = 1
	loop.run(rng, coreProbe, led)
	loop.coreMetrics(v)
	for _, g := range graphs {
		kernelMetrics(v, g.name, g.dyn.Precomputed())
		setupMetrics(v, g.name, g.dyn.Precomputed())
	}
	return nil
}

// coreProbe is the length of the in-process core loop of a traced HTTP run.
const coreProbe = 1500 * time.Millisecond
