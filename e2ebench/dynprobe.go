package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bear"
	"bear/internal/obsv"
)

// The core dynamic layer — edge updates, the Woodbury overlay that keeps
// queries exact while updates are pending, and the rebuilds that fold them
// in — measured in-process as part of every solve-mix run.
const (
	// writeBlock is the writes applied to one graph between rebuilds: a
	// little more than bearserve's 64-node auto-rebuild threshold, the
	// cadence a server under churn rebuilds at.
	writeBlock = 80
	// dynamicRounds is the write-then-rebuild rounds per graph.
	dynamicRounds = 3
	// dynamicChecked is the uniformly drawn seeds per graph whose answers
	// are checked against the oracle after the writes.
	dynamicChecked = 6
)

// dynamicProbe drives each graph's Dynamic the way churn drives a server:
// dynamicRounds blocks of writeBlock writes from the seeded churn mix
// (triadic-closure adds, removals of existing edges, uniform adds), a
// Zipf query after every write (each pays the Woodbury refresh and terms),
// and a timed auto rebuild after each block. One more block is left
// pending, and sampled seeds are then checked against the oracle of the
// benchmark's own copy of the edges twice: through the Woodbury overlay,
// and after a synchronous full rebuild. With traced set it also fills the
// core-dynamic per-layer metrics.
func dynamicProbe(v map[string]float64, ds []*dataset, rng *rand.Rand, led *ledger, traced bool) error {
	var terms, refresh, pending, rebuildMs []float64
	var incremental, rebuilds float64
	for _, d := range ds {
		dyn, err := bear.NewDynamic(d.g, bear.Options{})
		if err != nil {
			return fmt.Errorf("dynamic probe %s: %w", d.name, err)
		}
		// The planner applies each write to copyOf as it hands it out;
		// every write is applied synchronously, so copyOf is the graph the
		// Dynamic must hold (a failed write is a mismatch).
		copyOf := newEdgeSet(d.g)
		planner := newWritePlanner(rng, copyOf)
		for round := 0; round <= dynamicRounds; round++ {
			for i := 0; i < writeBlock; i++ {
				w := planner.next()
				if w == nil {
					break
				}
				if w.Op == "add" {
					err = dyn.AddEdge(w.U, w.V, w.W)
				} else {
					err = dyn.RemoveEdge(w.U, w.V)
				}
				led.record(err, err != nil)
				pending = append(pending, float64(dyn.PendingNodes()))
				ctx := context.Background()
				var tr *obsv.Trace
				if traced {
					tr = obsv.NewTrace()
					ctx = obsv.WithTrace(ctx, tr)
				}
				_, err = dyn.QueryCtx(ctx, d.zipfSeed(rng))
				led.record(err, false)
				for _, sp := range tr.Spans() {
					switch sp.Name {
					case obsv.SpanWoodburyTerms:
						terms = append(terms, us(sp.Dur))
					case obsv.SpanWoodburyRefresh:
						refresh = append(refresh, us(sp.Dur))
					}
				}
			}
			if round == dynamicRounds {
				break
			}
			start := time.Now()
			rep, err := dyn.RebuildCtx(context.Background(), bear.RebuildAuto)
			rebuildMs = append(rebuildMs, ms(time.Since(start)))
			led.record(err, false)
			rebuilds++
			if err == nil && rep.Mode == bear.RebuildIncremental {
				incremental++
			}
		}

		seeds := make([]int, dynamicChecked)
		for i := range seeds {
			seeds[i] = rng.Intn(d.g.N())
		}
		orc, err := newOracle(copyOf.graph(), seeds)
		if err != nil {
			return err
		}
		checkDynamic(dyn, orc, d.name+" with pending updates", led)
		_, err = dyn.RebuildCtx(context.Background(), bear.RebuildFull)
		led.record(err, false)
		checkDynamic(dyn, orc, d.name+" after a full rebuild", led)
	}
	if traced {
		v["core.woodbury_terms_us"] = median(terms)
		v["core.woodbury_refresh_us"] = median(refresh)
		v["core.pending_mean"] = mean(pending)
		v["core.rebuild_p50_ms"] = median(rebuildMs)
		v["core.rebuild_incremental_ratio"] = ratio(incremental, rebuilds)
	}
	return nil
}

// checkDynamic compares a Dynamic's full answers and top-10 sets with the
// oracle on every sampled seed.
func checkDynamic(dyn *bear.Dynamic, orc *oracle, stage string, led *ledger) {
	for seed, ref := range orc.vecs {
		got, err := dyn.Query(seed)
		if err == nil {
			if err = checkVector(got, ref.scores); err != nil {
				err = fmt.Errorf("dynamic %s, seed %d: %w", stage, seed, err)
				led.record(err, true)
				continue
			}
		}
		led.record(err, false)
		res, err := dyn.QueryTopK(seed, topKPerQuery)
		if err == nil {
			top := make([]scored, len(res.Nodes))
			for i, n := range res.Nodes {
				top[i] = scored{Node: n, Score: res.Scores[i]}
			}
			if err = checkTopK(top, ref, topKPerQuery, nil, 0, res.Stats.Pruned); err != nil {
				err = fmt.Errorf("dynamic %s, seed %d top-k: %w", stage, seed, err)
				led.record(err, true)
				continue
			}
		}
		led.record(err, false)
	}
}
