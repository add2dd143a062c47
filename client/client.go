// Package client is the Go client for the bear HTTP query service
// (package bear/server): upload graphs, run RWR / PPR / PageRank queries,
// and stream edge updates without linking the solver into the caller.
//
// Idempotent requests (queries, stats, health) are retried automatically
// on transport failures and retryable statuses (429/502/503/504) with
// exponential backoff, jitter, a total wall-clock budget, and respect for
// the server's Retry-After hint in both its HTTP shapes (delta-seconds and
// HTTP-date). Mutations — edge updates, uploads, rebuilds — are never
// retried, since replaying them could apply an update twice.
//
// Against a bearfront coordinator the same API applies unchanged; use
// NewCluster to spread requests across several stateless front instances
// with client-side failover between them.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bear/internal/retry"
	"bear/server"
)

// Client talks to one bearserve instance, or to one or more bearfront
// coordinators (see NewCluster).
type Client struct {
	bases  []string
	cur    atomic.Uint32 // index into bases of the currently preferred URL
	http   *http.Client
	policy retry.Policy
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, middlewares).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetries sets how many times an idempotent request is retried after
// its first failure (default 2; 0 disables retries).
func WithRetries(n int) Option {
	return func(c *Client) { c.policy.MaxRetries = n }
}

// WithRetryBaseDelay sets the first backoff delay; each retry doubles it
// before jitter (default 100ms).
func WithRetryBaseDelay(d time.Duration) Option {
	return func(c *Client) { c.policy.BaseDelay = d }
}

// WithRetryBudget caps the total wall clock a single call spends across
// attempts and backoff sleeps (default 1 minute; 0 removes the cap). A
// retry whose backoff would land past the budget is abandoned and the last
// error returned, so a pathological Retry-After hint cannot stall callers.
func WithRetryBudget(d time.Duration) Option {
	return func(c *Client) { c.policy.Budget = d }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	return NewCluster([]string{baseURL}, opts...)
}

// NewCluster returns a cluster-aware client: baseURLs name one or more
// bearfront coordinators (all serving the same shard set — fronts are
// stateless, so any of them can answer any request). Requests go to the
// currently preferred front; when it fails at the transport level or
// answers 502/503/504, the client rotates to the next front for the retry
// and keeps the new preference for subsequent calls, so a dead coordinator
// costs one failover rather than one per request.
func NewCluster(baseURLs []string, opts ...Option) *Client {
	bases := make([]string, 0, len(baseURLs))
	for _, u := range baseURLs {
		bases = append(bases, strings.TrimRight(u, "/"))
	}
	if len(bases) == 0 {
		bases = []string{""}
	}
	c := &Client{
		bases:  bases,
		http:   &http.Client{Timeout: 5 * time.Minute},
		policy: retry.DefaultPolicy,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// base returns the currently preferred base URL.
func (c *Client) base() string {
	return c.bases[int(c.cur.Load())%len(c.bases)]
}

// rotateBase moves the preference to the next base URL, if there are
// several. from guards against concurrent requests rotating twice for one
// shared failure observation.
func (c *Client) rotateBase(from uint32) {
	if len(c.bases) > 1 {
		c.cur.CompareAndSwap(from, from+1)
	}
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint on shed (503) responses,
	// zero when absent.
	RetryAfter time.Duration
}

// Error renders the server's message alongside the HTTP status.
func (e *APIError) Error() string {
	return fmt.Sprintf("bear service: %s (HTTP %d)", e.Message, e.Status)
}

// do sends one request, retrying idempotent ones under the retry policy's
// attempt count and wall-clock budget. body is a byte slice — not a
// reader — precisely so every retry can replay it from the start.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, out interface{}) error {
	attempts := 1
	if idempotent {
		attempts = c.policy.Attempts()
	}
	budget := retry.StartBudget(time.Now(), c.policy.Budget)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleep := c.policy.Backoff(attempt-1, retryAfterHint(lastErr))
			if !budget.Allows(time.Now(), sleep) {
				return lastErr
			}
			if retry.Sleep(ctx, sleep) != nil {
				return lastErr
			}
		}
		from := c.cur.Load()
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
		if frontFailure(err) {
			// The preferred front itself looks unhealthy; aim the retry
			// (and subsequent calls) at the next one.
			c.rotateBase(from)
		}
	}
	return lastErr
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out interface{}) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base()+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return readAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func readAPIError(resp *http.Response) error {
	var apiErr struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
		msg = apiErr.Error
	}
	e := &APIError{Status: resp.StatusCode, Message: msg}
	if d, ok := retry.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		e.RetryAfter = d
	}
	return e
}

// retryAfterHint extracts the server's Retry-After hint from the last
// error, zero when there was none.
func retryAfterHint(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// frontFailure reports whether an error indicts the front itself (dead
// process, gateway trouble) rather than the request — the cases where a
// cluster-aware client should rotate to another coordinator. 429 and
// plain 503 shedding are load signals, not liveness ones; rotating on
// them would herd every client onto the least-loaded front at once.
func frontFailure(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Transport-level failure: no response arrived at all.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// retryable reports whether a failed attempt is worth repeating: shed or
// gateway errors from the server, or transport failures where no response
// arrived at all. Context cancellation is the caller's decision and is
// never retried.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// Health reports whether the service is reachable and healthy (alive; for
// a shard's query-serving readiness, see Ready).
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, true, nil)
}

// Ready reports whether the service is ready to serve queries: at least
// one graph loaded and no snapshot restore in progress. A non-ready
// server answers 503, surfaced here as an *APIError.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, true, nil)
}

// UploadOptions tunes preprocessing of an uploaded graph.
type UploadOptions struct {
	// C is the restart probability; zero keeps the server default (0.05).
	C float64
	// DropTol is the BEAR-Approx drop tolerance ξ; zero means exact.
	DropTol float64
	// Laplacian selects the normalized-graph-Laplacian variant.
	Laplacian bool
}

// Upload sends a graph body (edge list or MatrixMarket) to be preprocessed
// under the given name, replacing any existing graph with that name.
func (c *Client) Upload(ctx context.Context, name string, graph io.Reader, opts UploadOptions) (server.GraphInfo, error) {
	q := url.Values{}
	if opts.C != 0 {
		q.Set("c", strconv.FormatFloat(opts.C, 'g', -1, 64))
	}
	if opts.DropTol != 0 {
		q.Set("drop", strconv.FormatFloat(opts.DropTol, 'g', -1, 64))
	}
	if opts.Laplacian {
		q.Set("laplacian", "true")
	}
	path := "/v1/graphs/" + url.PathEscape(name)
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var info server.GraphInfo
	// Uploads stream the (potentially huge) graph body and preprocess on
	// the server; they are not idempotent-retried. The request is built
	// directly so the body need not be buffered.
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base()+path, graph)
	if err != nil {
		return info, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return info, readAPIError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info, err
}

// List returns stats for every registered graph.
func (c *Client) List(ctx context.Context) ([]server.GraphInfo, error) {
	var out struct {
		Graphs []server.GraphInfo `json:"graphs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, true, &out)
	return out.Graphs, err
}

// Stats returns stats for one graph.
func (c *Client) Stats(ctx context.Context, name string) (server.GraphInfo, error) {
	var info server.GraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name), nil, true, &info)
	return info, err
}

// Delete removes a graph.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, false, nil)
}

type queryResponse struct {
	Results []server.ScoredNode `json:"results"`
}

// Query returns the top-k RWR results for a single seed.
func (c *Client) Query(ctx context.Context, name string, seed, top int) ([]server.ScoredNode, error) {
	path := fmt.Sprintf("/v1/graphs/%s/query?seed=%d&top=%d", url.PathEscape(name), seed, top)
	var out queryResponse
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, err
}

// QueryTraced is Query plus the server's per-stage solver timing
// breakdown (?trace=1): one span per Algorithm 2 stage the request
// executed, merged and in execution order. A cache hit returns only the
// cache-lookup span. Useful for latency debugging; the untraced Query is
// the hot-path call.
func (c *Client) QueryTraced(ctx context.Context, name string, seed, top int) ([]server.ScoredNode, []server.TraceSpan, error) {
	path := fmt.Sprintf("/v1/graphs/%s/query?seed=%d&top=%d&trace=1", url.PathEscape(name), seed, top)
	var out struct {
		Results []server.ScoredNode `json:"results"`
		Trace   []server.TraceSpan  `json:"trace"`
	}
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, out.Trace, err
}

// QueryRefined returns the top-k RWR results answered through the
// server's iterative-refinement path (?refine=): the solve is verified
// against the retained exact operator and corrected until the relative
// residual falls below tol, recovering exact-level accuracy from a
// drop-tolerance-degraded index. The server rejects refined queries while
// edge updates are pending (rebuild first).
func (c *Client) QueryRefined(ctx context.Context, name string, seed, top int, tol float64) ([]server.ScoredNode, error) {
	path := fmt.Sprintf("/v1/graphs/%s/query?seed=%d&top=%d&refine=%s",
		url.PathEscape(name), seed, top, url.QueryEscape(strconv.FormatFloat(tol, 'g', -1, 64)))
	var out queryResponse
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, err
}

// Accuracy runs the server's sampled accuracy self-check on k random
// seeds: each is queried through the plain solver, its residual is
// measured against the retained exact operator, and the scores are
// compared to a refined solve. k <= 0 keeps the server default (8).
func (c *Client) Accuracy(ctx context.Context, name string, k int) (server.AccuracyReport, error) {
	path := "/v1/graphs/" + url.PathEscape(name) + "/accuracy"
	if k > 0 {
		path += fmt.Sprintf("?k=%d", k)
	}
	var rep server.AccuracyReport
	err := c.do(ctx, http.MethodGet, path, nil, true, &rep)
	return rep, err
}

// QueryEffectiveImportance returns top-k effective-importance results.
func (c *Client) QueryEffectiveImportance(ctx context.Context, name string, seed, top int) ([]server.ScoredNode, error) {
	path := fmt.Sprintf("/v1/graphs/%s/query?seed=%d&top=%d&ei=1", url.PathEscape(name), seed, top)
	var out queryResponse
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, err
}

// PageRank returns the top-k global PageRank results.
func (c *Client) PageRank(ctx context.Context, name string, top int) ([]server.ScoredNode, error) {
	path := fmt.Sprintf("/v1/graphs/%s/pagerank?top=%d", url.PathEscape(name), top)
	var out queryResponse
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, err
}

// PPR returns top-k personalized-PageRank results for a weighted seed set.
func (c *Client) PPR(ctx context.Context, name string, seeds map[int]float64, top int) ([]server.ScoredNode, error) {
	// Mirror the server's all-zero rejection so the obviously-degenerate
	// request never goes on the wire (zero weights are legal individually,
	// but a set with no mass describes no starting distribution).
	if len(seeds) > 0 {
		allZero := true
		for _, w := range seeds {
			if w != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return nil, fmt.Errorf("client: seed weights must not all be zero")
		}
	}
	body := struct {
		Seeds map[string]float64 `json:"seeds"`
		Top   int                `json:"top"`
	}{Seeds: make(map[string]float64, len(seeds)), Top: top}
	for node, w := range seeds {
		body.Seeds[strconv.Itoa(node)] = w
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	var out queryResponse
	// PPR is a read served over POST (the seed set rides in the body);
	// replaying it is safe, so it retries like the GET queries.
	err = c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(name)+"/ppr", buf, true, &out)
	return out.Results, err
}

// QueryBatch returns top-k RWR results for many seeds in one request. The
// server answers cached seeds from its result cache and solves the rest
// together through its blocked multi-RHS solver; results are identical to
// issuing Query per seed, slot i corresponding to seeds[i] (duplicates
// allowed).
func (c *Client) QueryBatch(ctx context.Context, name string, seeds []int, top int) ([]server.BatchSeedResult, error) {
	body, err := json.Marshal(struct {
		Seeds []int `json:"seeds"`
		Top   int   `json:"top"`
	}{Seeds: seeds, Top: top})
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []server.BatchSeedResult `json:"results"`
	}
	// Like PPR, a read served over POST: replaying it is safe, so it
	// retries like the GET queries.
	err = c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(name)+"/batch", body, true, &out)
	return out.Results, err
}

// TopK returns the k highest-scoring nodes for seed through the server's
// block-pruned top-k path. Nodes and exact scores are identical to Query
// with top=k.
func (c *Client) TopK(ctx context.Context, name string, seed, k int) ([]server.ScoredNode, error) {
	path := fmt.Sprintf("/v1/graphs/%s/topk?seed=%d&k=%d", url.PathEscape(name), seed, k)
	var out struct {
		Results []server.ScoredNode `json:"results"`
	}
	err := c.do(ctx, http.MethodGet, path, nil, true, &out)
	return out.Results, err
}

// Candidates returns per-seed link-prediction candidates: for each seed,
// the k highest-scoring nodes excluding the seed itself and its existing
// out-neighbors. Slot i corresponds to seeds[i].
func (c *Client) Candidates(ctx context.Context, name string, seeds []int, k int) ([]server.CandidateSeedResult, error) {
	body, err := json.Marshal(struct {
		Seeds []int `json:"seeds"`
		K     int   `json:"k"`
	}{Seeds: seeds, K: k})
	if err != nil {
		return nil, err
	}
	var out struct {
		Results []server.CandidateSeedResult `json:"results"`
	}
	// A read served over POST, like PPR and QueryBatch: safe to replay.
	err = c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(name)+"/candidates", body, true, &out)
	return out.Results, err
}

// UpdateStatus reports the pending-update state after an edge operation.
type UpdateStatus struct {
	Pending int `json:"pending"`
	// Rebuilding reports that the operation tripped the server's rebuild
	// threshold and a background rebuild is folding the updates in;
	// queries keep answering from the current state meanwhile.
	Rebuilding bool `json:"rebuilding"`
}

func (c *Client) edgeOp(ctx context.Context, name string, payload interface{}) (UpdateStatus, error) {
	buf, err := json.Marshal(payload)
	if err != nil {
		return UpdateStatus{}, err
	}
	var out UpdateStatus
	err = c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(name)+"/edges", buf, false, &out)
	return out, err
}

// AddEdge adds a directed edge with the given weight (0 means 1).
func (c *Client) AddEdge(ctx context.Context, name string, u, v int, w float64) (UpdateStatus, error) {
	return c.edgeOp(ctx, name, map[string]interface{}{"op": "add", "u": u, "v": v, "w": w})
}

// RemoveEdge removes a directed edge.
func (c *Client) RemoveEdge(ctx context.Context, name string, u, v int) (UpdateStatus, error) {
	return c.edgeOp(ctx, name, map[string]interface{}{"op": "remove", "u": u, "v": v})
}

// ReplaceNode replaces all out-edges of node u.
func (c *Client) ReplaceNode(ctx context.Context, name string, u int, dst []int, weights []float64) (UpdateStatus, error) {
	return c.edgeOp(ctx, name, map[string]interface{}{"op": "replace", "u": u, "dst": dst, "weights": weights})
}

// RebuildResult reports how a synchronous rebuild ran: the path the
// server chose, why auto mode fell back to a full pass (if it did), and
// how much of the block structure was re-factored.
type RebuildResult struct {
	// Mode is the path that ran ("full" or "incremental"); Requested is
	// the mode the call asked for ("auto", "full", or "incremental").
	Mode      string `json:"mode"`
	Requested string `json:"requested"`
	// FallbackReason is set when an auto-mode rebuild declined the
	// incremental path: no_pending, no_cache, drop_tol, laplacian,
	// hub_dirty, cross_block, churn, or fill_ratio.
	FallbackReason   string  `json:"fallback_reason"`
	DirtyNodes       int     `json:"dirty_nodes"`
	BlocksRefactored int     `json:"blocks_refactored"`
	TotalBlocks      int     `json:"total_blocks"`
	RebuildMs        float64 `json:"rebuild_ms"`
}

// Rebuild folds pending updates into fresh precomputed matrices in auto
// mode: incremental when the updates qualify, full otherwise.
func (c *Client) Rebuild(ctx context.Context, name string) error {
	_, err := c.RebuildMode(ctx, name, "")
	return err
}

// RebuildMode is Rebuild with an explicit mode ("auto", "full", or
// "incremental"; "" means auto) and the server's report of what ran. An
// explicit "incremental" request the pending updates disqualify fails
// with a 409 naming the reason instead of silently running a full pass.
func (c *Client) RebuildMode(ctx context.Context, name, mode string) (RebuildResult, error) {
	path := "/v1/graphs/" + url.PathEscape(name) + "/rebuild"
	if mode != "" {
		path += "?mode=" + url.QueryEscape(mode)
	}
	var out RebuildResult
	err := c.do(ctx, http.MethodPost, path, nil, false, &out)
	return out, err
}

// RebuildAsync starts a background rebuild and returns immediately;
// queries keep serving the pre-rebuild state until the swap lands. Poll
// Stats until Rebuilding turns false and Pending drains to see it finish.
func (c *Client) RebuildAsync(ctx context.Context, name string) error {
	return c.RebuildAsyncMode(ctx, name, "")
}

// RebuildAsyncMode is RebuildAsync with an explicit rebuild mode ("" means
// auto).
func (c *Client) RebuildAsyncMode(ctx context.Context, name, mode string) error {
	path := "/v1/graphs/" + url.PathEscape(name) + "/rebuild?async=1"
	if mode != "" {
		path += "&mode=" + url.QueryEscape(mode)
	}
	return c.do(ctx, http.MethodPost, path, nil, false, nil)
}

// Snapshot asks the server to persist its registry to its configured
// snapshot path (crash-safe: written to a temp file and renamed).
func (c *Client) Snapshot(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/snapshot", nil, true, nil)
}

// Metrics fetches the server's Prometheus scrape body (GET /metrics),
// for ad-hoc inspection where no scraper is running. Returns an
// *APIError with status 404 if the server runs with metrics disabled.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", readAPIError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// ShardStatus is one shard's view in a bearfront cluster-status report.
type ShardStatus struct {
	ID          string  `json:"id"`
	URL         string  `json:"url"`
	State       string  `json:"state"` // healthy, half-open, ejected
	SuccessRate float64 `json:"success_rate"`
	LastError   string  `json:"last_error,omitempty"`
}

// ClusterStatus is the bearfront coordinator's membership and placement
// report (GET /v1/cluster/status).
type ClusterStatus struct {
	Replication int           `json:"replication"`
	Shards      []ShardStatus `json:"shards"`
	// Replicas is the placement of the graph named in the request's
	// ?graph= parameter; empty when none was asked for.
	Replicas []string `json:"replicas,omitempty"`
}

// Cluster reports shard health and, when graph is non-empty, the
// replica placement of that graph. It only works against a bearfront
// coordinator; a plain bearserve answers 404.
func (c *Client) Cluster(ctx context.Context, graph string) (ClusterStatus, error) {
	path := "/v1/cluster/status"
	if graph != "" {
		path += "?graph=" + url.QueryEscape(graph)
	}
	var st ClusterStatus
	err := c.do(ctx, http.MethodGet, path, nil, true, &st)
	return st, err
}

// RepairOutcome reports one replica's result of an anti-entropy repair.
type RepairOutcome struct {
	Shard  string `json:"shard"`
	OK     bool   `json:"ok"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Repair asks a bearfront coordinator to re-push graph from a healthy
// replica's exported state to lagging replicas (POST /v1/cluster/repair).
// Not retried: a half-finished repair is safe but re-running it doubles
// the copy work, so the caller decides.
func (c *Client) Repair(ctx context.Context, graph string) ([]RepairOutcome, error) {
	var out struct {
		Source   string          `json:"source"`
		Outcomes []RepairOutcome `json:"outcomes"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/cluster/repair?graph="+url.QueryEscape(graph), nil, false, &out)
	return out.Outcomes, err
}
