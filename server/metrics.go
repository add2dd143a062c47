package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"bear"
	"bear/internal/obsv"
	"bear/internal/resultcache"
	"bear/internal/sparse/kernel"
)

// This file wires the obsv metrics registry into the serving layer. Every
// exported metric is documented in OPERATIONS.md ("Metrics reference");
// keep the two in sync when adding series.
//
// Two rules keep the wiring deadlock- and drift-free:
//
//   - Never touch the registry while holding s.mu: collection callbacks
//     (GaugeFunc/CounterFunc) may take s.mu.RLock, and the registry holds
//     its own lock during a scrape.
//   - Subsystems that already count (the result cache, the singleflight
//     coalescer, Dynamic) are exported through Func metrics reading the
//     live object, never copied into parallel counters — so /metrics can
//     never drift from the subsystem's own accounting.

// serverMetrics bundles the registry and the pre-resolved series the hot
// path updates.
type serverMetrics struct {
	reg *obsv.Registry

	inFlight *obsv.Gauge
	shed     *obsv.Counter
	panics   *obsv.Counter

	refineQueries  *obsv.Counter
	refineSweeps   *obsv.Counter
	refineResidual *obsv.Histogram

	candidatesRequests *obsv.Counter

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// endpointMetrics is the per-endpoint slice of the HTTP metrics: one
// latency histogram plus request counters keyed by status code.
type endpointMetrics struct {
	name    string
	latency *obsv.Histogram
	mu      sync.Mutex
	codes   map[int]*obsv.Counter
}

const (
	helpRequests = "HTTP requests served, by endpoint and status code."
	helpLatency  = "HTTP request latency in seconds, by endpoint."
)

// metrics lazily builds the registry and the server-wide series; the
// registry exists (and counts) whether or not the /metrics endpoint is
// enabled, so enabling it later loses no history.
func (s *Server) metrics() *serverMetrics {
	s.metricsOnce.Do(func() {
		reg := obsv.NewRegistry()
		m := &serverMetrics{reg: reg, endpoints: make(map[string]*endpointMetrics)}
		m.inFlight = reg.Gauge("bear_http_in_flight",
			"Requests currently inside a /v1 handler.")
		m.shed = reg.Counter("bear_http_shed_total",
			"Requests shed with 503 by admission control. Shed requests are not counted in bear_http_requests_total.")
		m.panics = reg.Counter("bear_http_panics_total",
			"Handler panics converted to 500 by the recovery middleware.")

		m.refineQueries = reg.Counter("bear_refine_queries_total",
			"Queries answered through iterative refinement (?refine=<tol> or the accuracy endpoint). Cache hits of refined results are not re-counted.")
		m.refineSweeps = reg.Counter("bear_refine_sweeps_total",
			"Richardson refinement sweeps applied across all refined queries; the ratio to bear_refine_queries_total is the mean sweeps per query.")
		m.refineResidual = reg.Histogram("bear_refine_residual",
			"Final score-level residual infinity-norm of refined queries.", obsv.ResidualBuckets)

		m.candidatesRequests = reg.Counter("bear_candidates_requests_total",
			"Link-prediction candidate requests served (POST /candidates), counted before validation.")

		cacheStats := func() resultcache.Stats { return s.resultCache().Stats() }
		reg.CounterFunc("bear_cache_hits_total",
			"Result-cache hits.", func() uint64 { return cacheStats().Hits })
		reg.CounterFunc("bear_cache_misses_total",
			"Result-cache misses (a solve ran).", func() uint64 { return cacheStats().Misses })
		reg.CounterFunc("bear_cache_coalesced_total",
			"Requests that shared another in-flight identical solve.", func() uint64 { return s.flight.Coalesced() })
		reg.CounterFunc("bear_cache_evictions_total",
			"Result-cache LRU evictions.", func() uint64 { return cacheStats().Evictions })
		reg.CounterFunc("bear_cache_expired_total",
			"Result-cache TTL expirations.", func() uint64 { return cacheStats().Expired })
		reg.GaugeFunc("bear_cache_entries",
			"Result-cache resident entries.", func() float64 { return float64(cacheStats().Entries) })
		reg.GaugeFunc("bear_cache_bytes",
			"Result-cache resident bytes.", func() float64 { return float64(cacheStats().Bytes) })
		reg.GaugeFunc("bear_cache_max_bytes",
			"Result-cache byte budget.", func() float64 { return float64(cacheStats().MaxBytes) })

		reg.GaugeFunc("bear_graphs", "Graphs currently registered.", func() float64 {
			s.mu.RLock()
			n := len(s.graphs)
			s.mu.RUnlock()
			return float64(n)
		})

		// Kernel-layer layout/parallel-path counters, read live from
		// internal/sparse/kernel. Process-wide rather than per graph:
		// layouts are chosen per matrix at preprocess/load time, and the
		// hot-path counters are plain atomics with no graph dimension.
		for _, layout := range kernel.Layouts() {
			layout := layout
			l := obsv.L("layout", layout)
			reg.CounterFunc("bear_kernel_selected_total",
				"Kernel matrices constructed, by storage layout ('parallel' counts wrappers around another layout). Shows what the auto heuristic or the -kernel override picked.",
				func() uint64 { sel, _, _ := kernel.Stats(layout); return sel }, l)
			reg.CounterFunc("bear_kernel_spmv_total",
				"Kernel SpMV-family calls (full, row-ranged and column-ranged), by layout.",
				func() uint64 { _, spmv, _ := kernel.Stats(layout); return spmv }, l)
			reg.CounterFunc("bear_kernel_spmm_total",
				"Kernel SpMM-family (multi-RHS) calls, by layout.",
				func() uint64 { _, _, spmm := kernel.Stats(layout); return spmm }, l)
		}
		s.srvMetrics = m
	})
	return s.srvMetrics
}

// endpoint returns (creating on first use) the per-endpoint metric slice.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{
			name: name,
			latency: m.reg.Histogram("bear_http_request_seconds", helpLatency,
				obsv.LatencyBuckets, obsv.L("endpoint", name)),
			codes: make(map[int]*obsv.Counter),
		}
		m.endpoints[name] = em
	}
	return em
}

// code returns the request counter for one (endpoint, status code) pair.
func (em *endpointMetrics) code(reg *obsv.Registry, status int) *obsv.Counter {
	em.mu.Lock()
	defer em.mu.Unlock()
	c, ok := em.codes[status]
	if !ok {
		c = reg.Counter("bear_http_requests_total", helpRequests,
			obsv.L("endpoint", em.name), obsv.L("code", strconv.Itoa(status)))
		em.codes[status] = c
	}
	return c
}

// statusRecorder captures the response status for the request counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps one endpoint handler with the request counter, latency
// histogram, and in-flight gauge. The endpoint label is the route's
// logical name, not the raw path, so label cardinality stays fixed.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics()
	em := m.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sr, r)
		em.latency.Observe(time.Since(start).Seconds())
		em.code(m.reg, sr.status).Inc()
	}
}

// exportGraphMetrics (re)publishes the per-graph series for a registered
// graph. Everything is a Func metric closing over the live *bear.Dynamic,
// so rebuild swaps and pending-update churn are reflected at scrape time
// with no refresh hook; re-registering a name rebinds the callbacks to
// the new instance. DeleteLabeled drops the series when the graph goes.
func (s *Server) exportGraphMetrics(name string, e *entry) {
	m := s.metrics()
	dyn := e.dyn
	g := obsv.L("graph", name)

	stage := func(stageName string, sel func(st bear.Stats) time.Duration) {
		m.reg.GaugeFunc("bear_preprocess_stage_seconds",
			"Preprocessing time of the last completed pass, by Algorithm 1 stage (ordering, block_lu, schur_assembly, schur_factor, total).",
			func() float64 { return sel(dyn.Precomputed().Stats).Seconds() },
			g, obsv.L("stage", stageName))
	}
	stage("ordering", func(st bear.Stats) time.Duration { return st.TimeOrdering })
	stage("block_lu", func(st bear.Stats) time.Duration { return st.TimeLU1 })
	stage("schur_assembly", func(st bear.Stats) time.Duration { return st.TimeSchur })
	stage("schur_factor", func(st bear.Stats) time.Duration { return st.TimeLU2 })
	stage("total", func(st bear.Stats) time.Duration { return st.TimeTotal })

	// One series per engine (a closed set, so cardinality is
	// bounded): 1 for the engine that produced the current index, 0
	// otherwise — rebuild swaps are reflected at scrape time.
	for _, name := range bear.Orderings() {
		name := name
		m.reg.GaugeFunc("bear_ordering_selected",
			"1 for the ordering engine that produced the graph's current index (see Options.Ordering), 0 for the others.",
			func() float64 {
				if bear.NormalizeOrdering(dyn.Options().Ordering) == name {
					return 1
				}
				return 0
			}, g, obsv.L("ordering", name))
	}

	m.reg.GaugeFunc("bear_graph_nodes", "Nodes in the graph.",
		func() float64 { return float64(dyn.Graph().N()) }, g)
	m.reg.GaugeFunc("bear_graph_edges", "Edges in the graph (with all accepted updates).",
		func() float64 { return float64(dyn.Graph().M()) }, g)
	m.reg.GaugeFunc("bear_graph_pending_updates", "Nodes updated since the last completed preprocessing pass; per-query Woodbury cost grows with this.",
		func() float64 { return float64(dyn.PendingNodes()) }, g)
	m.reg.GaugeFunc("bear_graph_rebuilding", "1 while a background rebuild is preprocessing, else 0.",
		func() float64 {
			if dyn.RebuildInProgress() {
				return 1
			}
			return 0
		}, g)
	m.reg.GaugeFunc("bear_precomputed_bytes", "Memory held by the precomputed matrices and permutations.",
		func() float64 { return float64(dyn.Precomputed().Bytes()) }, g)

	// Last completed rebuild, whichever path it took. Zero until the first
	// rebuild finishes; incremental rebuilds report zero ordering time
	// (the partition is reused) while splice is nonzero only for them.
	rstage := func(stageName string, sel func(rep bear.RebuildReport) time.Duration) {
		m.reg.GaugeFunc("bear_rebuild_stage_seconds",
			"Stage split of the last completed rebuild (ordering, block_lu, splice, schur_assembly, schur_factor, total). Incremental rebuilds spend nothing on the ordering; full rebuilds spend nothing on splice.",
			func() float64 {
				rep, ok := dyn.LastRebuild()
				if !ok {
					return 0
				}
				return sel(rep).Seconds()
			}, g, obsv.L("stage", stageName))
	}
	rstage("ordering", func(rep bear.RebuildReport) time.Duration { return rep.TimeOrdering })
	rstage("block_lu", func(rep bear.RebuildReport) time.Duration { return rep.TimeBlockLU })
	rstage("splice", func(rep bear.RebuildReport) time.Duration { return rep.TimeSplice })
	rstage("schur_assembly", func(rep bear.RebuildReport) time.Duration { return rep.TimeSchurAssembly })
	rstage("schur_factor", func(rep bear.RebuildReport) time.Duration { return rep.TimeSchurFactor })
	rstage("total", func(rep bear.RebuildReport) time.Duration { return rep.TimeTotal })
	m.reg.GaugeFunc("bear_rebuild_blocks_refactored",
		"Diagonal H11 blocks re-factored by the last completed rebuild (all of them for a full pass, only the dirty ones for an incremental).",
		func() float64 {
			rep, ok := dyn.LastRebuild()
			if !ok {
				return 0
			}
			return float64(rep.BlocksRefactored)
		}, g)
}

// recordRebuildOutcome counts one completed rebuild by the path that
// actually ran, and by fallback reason when auto mode declined the
// incremental path. Called after every successful RebuildCtx driven by
// the server (sync endpoint or background); label cardinality is bounded
// because both mode and reason come from closed sets in the engine.
func (s *Server) recordRebuildOutcome(name string, rep bear.RebuildReport) {
	m := s.metrics()
	g := obsv.L("graph", name)
	m.reg.Counter("bear_rebuild_mode_total",
		"Completed rebuilds by the path that actually ran (full or incremental).",
		g, obsv.L("mode", string(rep.Mode))).Inc()
	if rep.FallbackReason != "" {
		m.reg.Counter("bear_rebuild_fallback_total",
			"Auto-mode rebuilds that fell back to a full pass, by reason. A steady stream of hub_dirty or churn fallbacks means the update pattern defeats incremental rebuilds; see OPERATIONS.md.",
			g, obsv.L("reason", rep.FallbackReason)).Inc()
	}
}

// observeRefine records one refined solve into the refinement series.
func (s *Server) observeRefine(stats bear.RefineStats) {
	m := s.metrics()
	m.refineQueries.Inc()
	m.refineSweeps.Add(uint64(stats.Sweeps))
	m.refineResidual.Observe(stats.Residual)
}

// dropGraphMetrics removes every per-graph series for name.
func (s *Server) dropGraphMetrics(name string) {
	s.metrics().reg.DeleteLabeled("graph", name)
}

// rebuildCounters returns the (success, failure) rebuild counters for one
// graph; both survive graph re-registration, as monotonic counters must.
func (s *Server) rebuildCounters(name string) (ok, failed *obsv.Counter) {
	m := s.metrics()
	g := obsv.L("graph", name)
	return m.reg.Counter("bear_rebuilds_total", "Completed preprocessing rebuilds.", g),
		m.reg.Counter("bear_rebuild_errors_total", "Rebuilds that failed; the previous matrices keep serving.", g)
}

// TraceSpan is one solver-stage timing in a ?trace=1 response, in
// milliseconds, stages merged (a batch records one span set per chunk)
// and ordered by first execution.
type TraceSpan struct {
	Span string  `json:"span"`
	Ms   float64 `json:"ms"`
}

// traceSpans renders a trace for the JSON response.
func traceSpans(tr *obsv.Trace) []TraceSpan {
	merged := tr.Merged()
	out := make([]TraceSpan, len(merged))
	for i, sp := range merged {
		out[i] = TraceSpan{Span: sp.Name, Ms: float64(sp.Dur.Microseconds()) / 1000}
	}
	return out
}

// traceContext attaches a fresh obsv.Trace to ctx when this request wants
// one: either the caller asked for the breakdown (?trace=1) or the server
// samples every query for the slow-query log (TraceSlow > 0). Otherwise
// ctx is returned untouched and the solver runs the nil-trace fast path.
func (s *Server) traceContext(ctx context.Context, r *http.Request) (_ context.Context, tr *obsv.Trace, debug bool) {
	debug = r.URL.Query().Get("trace") != ""
	if !debug && s.TraceSlow <= 0 {
		return ctx, nil, false
	}
	tr = obsv.NewTrace()
	return obsv.WithTrace(ctx, tr), tr, debug
}

// logSlow emits the structured slow-query log line when a traced query
// crossed the TraceSlow threshold.
func (s *Server) logSlow(endpoint, graph, detail, cacheStatus string, elapsed time.Duration, tr *obsv.Trace) {
	if s.TraceSlow <= 0 || elapsed < s.TraceSlow || tr == nil {
		return
	}
	s.logf("slow query: endpoint=%s graph=%s %s cache=%s elapsed=%s trace: %s",
		endpoint, graph, detail, cacheStatus, elapsed.Round(time.Microsecond), tr)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics().reg.WritePrometheus(w)
}
