package main

import "strings"

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units (TestCatalogMatchesBenchmarkJSON keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are reported by every workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"seeds_per_s", "1/s", "higher"},
}

var (
	httpEndpoints = []string{"query", "topk", "batch", "candidates", "edges"}
	factorNames   = []string{"l1inv", "u1inv", "h12", "h21", "l2inv", "u2inv"}
)

// perLayer lists the traced run's metrics, grouped by layer.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }

	add("cluster.hop_p50_ms", "ms", "lower")
	add("cluster.hop_p99_ms", "ms", "lower")
	for _, ep := range readOps {
		add("cluster.shard_calls_per_req."+ep, "count", "lower")
	}
	add("cluster.hedge_win_ratio", "ratio", "lower")
	add("cluster.degraded_ratio", "ratio", "lower")

	for _, q := range []string{"p50", "p99"} {
		for _, ep := range httpEndpoints {
			add("server.handler_"+q+"_ms."+ep, "ms", "lower")
		}
	}
	add("server.socket_p50_ms", "ms", "lower")
	add("server.shed_ratio", "ratio", "lower")

	add("resultcache.hit_ratio", "ratio", "higher")
	add("resultcache.coalesced_ratio", "ratio", "higher")
	add("resultcache.hit_p50_ms", "ms", "lower")
	add("resultcache.miss_p50_ms", "ms", "lower")

	for _, g := range graphNames {
		add("core.query_p50_us."+g, "us", "lower")
		add("core.query_p99_us."+g, "us", "lower")
		add("core.batch_seed_us."+g, "us", "lower")
		add("core.topk1_p50_us."+g, "us", "lower")
		add("core.topk10_p50_us."+g, "us", "lower")
		add("core.topk100_p50_us."+g, "us", "lower")
		add("core.topk_certified_ratio."+g, "ratio", "higher")
		add("core.topk_blocks_skipped_ratio."+g, "ratio", "higher")
	}
	for _, g := range graphNames {
		add("core.forward_solve_us."+g, "us", "lower")
		add("core.schur_solve_us."+g, "us", "lower")
		add("core.backsolve_us."+g, "us", "lower")
		add("core.unattributed_us."+g, "us", "lower")
	}
	add("core.woodbury_terms_us", "us", "lower")
	add("core.woodbury_refresh_us", "us", "lower")
	add("core.pending_mean", "count", "lower")
	add("core.rebuild_p50_ms", "ms", "lower")
	add("core.rebuild_incremental_ratio", "ratio", "higher")

	for _, g := range graphNames {
		for _, f := range factorNames {
			add("kernel.spmv_us."+g+"."+f, "us", "lower")
		}
		add("kernel.spmm16_us."+g, "us", "lower")
		add("kernel.bytes_per_query."+g, "bytes", "lower")
	}
	for _, g := range graphNames {
		add("setup.ordering_ms."+g, "ms", "lower")
		add("setup.block_lu_ms."+g, "ms", "lower")
		add("setup.schur_assembly_ms."+g, "ms", "lower")
		add("setup.schur_factor_ms."+g, "ms", "lower")
		add("setup.index_nnz."+g, "count", "lower")
		add("setup.hubs."+g, "count", "lower")
	}

	add("read_p99_ms", "ms", "lower")
	add("gen.late_p99_ms", "ms", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	add("error_rate", "ratio", "lower")
	return out
}

// bypassed lists, per workload, the per-layer metric prefixes whose layer
// the workload never calls; they report 0. Any other per-layer metric a
// workload fails to measure is an error, so no layer can silently vanish
// from the breakdown.
var bypassed = map[string][]string{
	"front-zipf": {"core.woodbury_", "core.rebuild_", "core.pending_mean", "server.handler_p50_ms.edges", "server.handler_p99_ms.edges"},
	"solve-mix":  {"cluster.", "server.", "resultcache.", "gen."},
}

func isBypassed(workload, name string) bool {
	for _, p := range bypassed[workload] {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
