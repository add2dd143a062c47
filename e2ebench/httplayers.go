package main

import (
	"net/http"
)

// httpLayers fills the server, resultcache and HTTP-visible core metrics
// of a traced phase from the shard middleware's records.
func httpLayers(v map[string]float64, r phaseResult, handled map[uint64]handled) {
	byEP := map[string][]float64{}
	var hit, miss []float64
	var reads, hits, coalesced, shed float64
	for _, h := range handled {
		d := ms(h.dur)
		byEP[h.endpoint] = append(byEP[h.endpoint], d)
		if h.status == http.StatusServiceUnavailable {
			shed++
		}
		if h.cache == "" {
			continue
		}
		reads++
		switch h.cache {
		case "hit":
			hits++
			hit = append(hit, d)
		case "coalesced":
			coalesced++
		default:
			miss = append(miss, d)
		}
	}
	for _, ep := range httpEndpoints {
		if xs := byEP[ep]; len(xs) > 0 {
			v["server.handler_p50_ms."+ep] = percentile(xs, 0.5)
			v["server.handler_p99_ms."+ep] = percentile(xs, 0.99)
		}
	}
	v["server.shed_ratio"] = ratio(shed, float64(len(handled)))
	v["resultcache.hit_ratio"] = ratio(hits, reads)
	v["resultcache.coalesced_ratio"] = ratio(coalesced, reads)
	v["resultcache.hit_p50_ms"] = median(hit)
	v["resultcache.miss_p50_ms"] = median(miss)

	// Algorithm 2 stages of single-seed /query answers that ran a solve
	// (?trace=1), per graph.
	stages := map[string]*[3][]float64{}
	for i := range r.ops {
		o, out := &r.ops[i], &r.outs[i]
		if out.err != nil {
			continue
		}
		var st [3]float64
		solved := false
		for _, sp := range out.spans {
			switch sp.Span {
			case "forward_solve":
				st[0], solved = st[0]+sp.Ms*1000, true
			case "schur_solve":
				st[1] += sp.Ms * 1000
			case "backsolve":
				st[2] += sp.Ms * 1000
			}
		}
		if o.kind == "query" && solved {
			if stages[o.graph] == nil {
				stages[o.graph] = &[3][]float64{}
			}
			for j := range st {
				stages[o.graph][j] = append(stages[o.graph][j], st[j])
			}
		}
	}
	for g, st := range stages {
		v["core.forward_solve_us."+g] = median(st[0])
		v["core.schur_solve_us."+g] = median(st[1])
		v["core.backsolve_us."+g] = median(st[2])
	}
}

// frontLayers fills the cluster metrics of a traced fronted phase, and
// the socket cost of the front → shard hop.
func frontLayers(v map[string]float64, r phaseResult, calls []shardCall, handled map[uint64]handled) {
	byOp := map[uint64][]shardCall{}
	var socket []float64
	for _, c := range calls {
		byOp[c.op] = append(byOp[c.op], c)
		if h, ok := handled[c.call]; ok {
			socket = append(socket, ms(c.end.Sub(c.start)-h.dur))
		}
	}
	perKind := map[string][]float64{}
	var hop []float64
	var hedgeWins, degraded float64
	for i := range r.ops {
		o, out := &r.ops[i], &r.outs[i]
		if out.degraded != "" {
			degraded++
		}
		if out.hedged {
			hedgeWins++
		}
		if !r.traced(i) {
			continue
		}
		cs := byOp[r.firstID+uint64(i)]
		perKind[o.kind] = append(perKind[o.kind], float64(len(cs)))
		if out.err != nil {
			continue
		}
		// The answering attempt is the one to the shard named in X-Shard.
		for j := len(cs) - 1; j >= 0; j-- {
			if h, ok := handled[cs[j].call]; ok && h.shard == out.shard {
				hop = append(hop, ms(out.recv.Sub(out.send)-h.dur))
				break
			}
		}
	}
	v["cluster.hop_p50_ms"] = percentile(hop, 0.5)
	v["cluster.hop_p99_ms"] = percentile(hop, 0.99)
	for _, k := range readOps {
		v["cluster.shard_calls_per_req."+k] = mean(perKind[k])
	}
	v["cluster.hedge_win_ratio"] = ratio(hedgeWins, float64(len(r.ops)))
	v["cluster.degraded_ratio"] = ratio(degraded, float64(len(r.ops)))
	v["server.socket_p50_ms"] = median(socket)
}

// traceEvery is the share of a traced run's operations that carry tracing
// (one in traceEvery); the rest are the untraced control.
const traceEvery = 2

// overhead fills the run-validity metrics: how much tracing slowed the
// traced reads against the untraced ones of the same phase, and how late
// the generator sent. It also reports the untraced reads' p99, which is
// not gated: on a shared host it moves with the neighbours' load.
func overhead(v map[string]float64, r phaseResult) {
	traced := summarize(r.times, r.traced)
	plain := summarize(r.times, func(i int) bool { return !r.traced(i) })
	v["trace.overhead_ratio"] = median(traced.latMs) / median(plain.latMs)
	v["read_p99_ms"] = percentile(plain.latMs, 0.99)
	v["gen.late_p99_ms"] = percentile(summarize(r.times, nil).lateMs, 0.99)
}
