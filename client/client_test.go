package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bear"
	"bear/server"
)

func newClient(t *testing.T) *Client {
	t.Helper()
	s := server.New()
	s.RebuildThreshold = 2
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func graphBody(t *testing.T) *bytes.Buffer {
	t.Helper()
	g := bear.GenerateCavemanHubs(bear.CavemanHubsConfig{
		Communities: 5, Size: 10, PIntra: 0.4, Hubs: 2, HubDeg: 8, Seed: 2,
	})
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestClientLifecycle(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	info, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{})
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if info.Name != "g" || info.Nodes == 0 {
		t.Fatalf("Upload info: %+v", info)
	}

	list, err := c.List(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("List: %v %v", list, err)
	}

	stats, err := c.Stats(ctx, "g")
	if err != nil || stats.Hubs == 0 {
		t.Fatalf("Stats: %+v %v", stats, err)
	}

	results, err := c.Query(ctx, "g", 3, 5)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(results) != 5 || results[0].Node != 3 {
		t.Fatalf("Query results: %v", results)
	}

	ei, err := c.QueryEffectiveImportance(ctx, "g", 3, 4)
	if err != nil || len(ei) != 4 {
		t.Fatalf("EI: %v %v", ei, err)
	}

	pr, err := c.PageRank(ctx, "g", 3)
	if err != nil || len(pr) != 3 {
		t.Fatalf("PageRank: %v %v", pr, err)
	}

	ppr, err := c.PPR(ctx, "g", map[int]float64{1: 0.5, 20: 0.5}, 4)
	if err != nil || len(ppr) != 4 {
		t.Fatalf("PPR: %v %v", ppr, err)
	}

	if err := c.Delete(ctx, "g"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Stats(ctx, "g"); err == nil {
		t.Fatal("expected not-found after delete")
	}
}

func TestClientUpdates(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{}); err != nil {
		t.Fatalf("Upload: %v", err)
	}

	st, err := c.AddEdge(ctx, "g", 0, 40, 1)
	if err != nil || st.Pending != 1 {
		t.Fatalf("AddEdge: %+v %v", st, err)
	}
	st, err = c.ReplaceNode(ctx, "g", 7, []int{1, 2}, []float64{1, 1})
	if err != nil {
		t.Fatalf("ReplaceNode: %v", err)
	}
	// Hitting the threshold starts a background rebuild; pending drains
	// once the swap lands.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := c.Stats(ctx, "g")
		if err != nil {
			t.Fatalf("Stats during rebuild: %v", err)
		}
		if stats.Pending == 0 && !stats.Rebuild {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background rebuild never drained: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.RemoveEdge(ctx, "g", 7, 1); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if err := c.Rebuild(ctx, "g"); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	stats, err := c.Stats(ctx, "g")
	if err != nil || stats.Pending != 0 {
		t.Fatalf("Stats after rebuild: %+v %v", stats, err)
	}

	// Mode-aware rebuilds surface the server's report: forcing full always
	// works, and the choices are echoed back.
	res, err := c.RebuildMode(ctx, "g", "full")
	if err != nil || res.Mode != "full" || res.Requested != "full" {
		t.Fatalf("RebuildMode(full): %+v %v", res, err)
	}
	// Auto with nothing pending records the no_pending fallback.
	res, err = c.RebuildMode(ctx, "g", "auto")
	if err != nil || res.Mode != "full" || res.FallbackReason != "no_pending" {
		t.Fatalf("RebuildMode(auto): %+v %v", res, err)
	}
	if _, err := c.RebuildMode(ctx, "g", "sideways"); err == nil {
		t.Fatal("RebuildMode accepted an invalid mode")
	}
}

func TestClientUploadOptions(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	info, err := c.Upload(ctx, "approx", graphBody(t), UploadOptions{C: 0.2, DropTol: 0.001})
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if info.RestartC != 0.2 || info.DropTol != 0.001 {
		t.Fatalf("options not applied: %+v", info)
	}
	if _, err := c.Upload(ctx, "lap", graphBody(t), UploadOptions{Laplacian: true}); err != nil {
		t.Fatalf("laplacian upload: %v", err)
	}
}

func TestClientAPIErrors(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	_, err := c.Query(ctx, "missing", 0, 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("expected 404 APIError, got %v", err)
	}
	if apiErr.Error() == "" {
		t.Fatal("empty error text")
	}
	if _, err := c.Upload(ctx, "bad", bytes.NewBufferString("garbage input"), UploadOptions{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestClientRetriesIdempotentOnly(t *testing.T) {
	var mu sync.Mutex
	gets, posts := 0, 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodGet {
			gets++
			if gets < 3 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"error":"shed"}`)
				return
			}
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		posts++
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shed"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(2), WithRetryBaseDelay(time.Millisecond))
	// Two sheds then success: the idempotent GET retries through them.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health should have retried to success: %v", err)
	}
	mu.Lock()
	if gets != 3 {
		t.Fatalf("GET attempted %d times, want 3", gets)
	}
	mu.Unlock()

	// A mutating POST is never retried, and the error surfaces the
	// server's Retry-After hint.
	_, err := c.AddEdge(context.Background(), "g", 0, 1, 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("AddEdge error = %v, want 503 APIError", err)
	}
	if apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", apiErr.RetryAfter)
	}
	mu.Lock()
	if posts != 1 {
		t.Fatalf("POST attempted %d times, want 1 (no retry on mutations)", posts)
	}
	mu.Unlock()
}

func TestClientUnreachable(t *testing.T) {
	c := New("http://127.0.0.1:1") // nothing listens here
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestClientQueryBatch(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{}); err != nil {
		t.Fatalf("Upload: %v", err)
	}

	seeds := []int{0, 7, 23, 7} // duplicate allowed
	batch, err := c.QueryBatch(ctx, "g", seeds, 5)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(batch) != len(seeds) {
		t.Fatalf("QueryBatch returned %d slots for %d seeds", len(batch), len(seeds))
	}
	for i, slot := range batch {
		if slot.Seed != seeds[i] {
			t.Fatalf("slot %d seed = %d, want %d", i, slot.Seed, seeds[i])
		}
		single, err := c.Query(ctx, "g", seeds[i], 5)
		if err != nil {
			t.Fatalf("Query seed %d: %v", seeds[i], err)
		}
		if fmt.Sprint(slot.Results) != fmt.Sprint(single) {
			t.Fatalf("seed %d: batch %v differs from single %v", seeds[i], slot.Results, single)
		}
	}

	if _, err := c.QueryBatch(ctx, "g", nil, 5); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.QueryBatch(ctx, "g", []int{1 << 30}, 5); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
}

func TestClientRefinedQueryAndAccuracy(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{DropTol: 0.001}); err != nil {
		t.Fatalf("Upload: %v", err)
	}

	res, err := c.QueryRefined(ctx, "g", 3, 5, 1e-9)
	if err != nil {
		t.Fatalf("QueryRefined: %v", err)
	}
	if len(res) != 5 {
		t.Fatalf("QueryRefined returned %d results, want 5", len(res))
	}

	rep, err := c.Accuracy(ctx, "g", 3)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if len(rep.Samples) != 3 {
		t.Fatalf("Accuracy returned %d samples, want 3", len(rep.Samples))
	}
	if rep.MinCosine <= 0.9 || rep.MaxResidual < 0 {
		t.Fatalf("implausible accuracy report: %+v", rep)
	}

	// A pending update turns refined queries into a clean API error.
	if _, err := c.AddEdge(ctx, "g", 0, 5, 2); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	_, err = c.QueryRefined(ctx, "g", 3, 5, 1e-9)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("QueryRefined with pending updates: %v, want 400", err)
	}
}

func TestClientRetryAfterHTTPDate(t *testing.T) {
	var mu sync.Mutex
	gets := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		gets++
		if gets < 2 {
			// An HTTP-date Retry-After in the past: "retry immediately".
			w.Header().Set("Retry-After", time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"shed"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(2), WithRetryBaseDelay(time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health should have parsed the HTTP-date hint and retried: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gets != 2 {
		t.Fatalf("GET attempted %d times, want 2", gets)
	}
}

func TestClientRetryBudget(t *testing.T) {
	var mu sync.Mutex
	gets := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gets++
		mu.Unlock()
		// Each failure points far beyond the client's budget.
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"shed"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(5), WithRetryBudget(50*time.Millisecond))
	start := time.Now()
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected failure once the budget was exhausted")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget did not cut retries short: took %v", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if gets != 1 {
		t.Fatalf("GET attempted %d times, want 1 (30s hint exceeds 50ms budget)", gets)
	}
}

func TestClientClusterFailover(t *testing.T) {
	// The dead front: every request is a transport error.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	var mu sync.Mutex
	hits := 0
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer live.Close()

	c := NewCluster([]string{deadURL, live.URL}, WithRetries(2), WithRetryBaseDelay(time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health should have failed over to the live front: %v", err)
	}
	// The preference sticks: the next call goes straight to the live front.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("second Health: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 2 {
		t.Fatalf("live front hit %d times, want 2", hits)
	}
}

func TestClientTopKAndCandidates(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{}); err != nil {
		t.Fatalf("Upload: %v", err)
	}

	results, err := c.TopK(ctx, "g", 3, 5)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("TopK returned %d results, want 5", len(results))
	}
	// The hybrid node set must match the exact query endpoint's ranking.
	single, err := c.Query(ctx, "g", 3, 5)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want := map[int]bool{}
	for _, r := range single {
		want[r.Node] = true
	}
	for _, r := range results {
		if !want[r.Node] {
			t.Fatalf("TopK node %d not in exact top-5 %v", r.Node, single)
		}
	}

	cands, err := c.Candidates(ctx, "g", []int{3, 10}, 4)
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(cands) != 2 {
		t.Fatalf("Candidates returned %d slots, want 2", len(cands))
	}
	for i, slot := range cands {
		if got, want := slot.Seed, []int{3, 10}[i]; got != want {
			t.Fatalf("slot %d seed %d, want %d", i, got, want)
		}
		for _, cand := range slot.Candidates {
			if cand.Node == slot.Seed {
				t.Fatalf("seed %d recommended itself", slot.Seed)
			}
		}
	}

	if _, err := c.Candidates(ctx, "g", nil, 4); err == nil {
		t.Fatal("empty candidates request accepted")
	}
	if _, err := c.TopK(ctx, "g", -1, 4); err == nil {
		t.Fatal("negative seed accepted")
	}
}

func TestClientPPRRejectsAllZero(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "g", graphBody(t), UploadOptions{}); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	// The client rejects the degenerate distribution locally, before any
	// request goes out — same rule the server enforces with a 400.
	if _, err := c.PPR(ctx, "g", map[int]float64{0: 0, 3: 0}, 5); err == nil {
		t.Fatal("all-zero seed weights accepted")
	} else if err.Error() != "client: seed weights must not all be zero" {
		t.Fatalf("unexpected error: %v", err)
	}
	// Mixed zero and positive weights remain valid.
	if _, err := c.PPR(ctx, "g", map[int]float64{0: 0, 3: 0.5}, 5); err != nil {
		t.Fatalf("mixed weights rejected: %v", err)
	}
}
