package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSONCache is doJSON plus the X-Cache response header.
func doJSONCache(t *testing.T, method, url, body string, wantStatus int) (map[string]interface{}, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantStatus, out)
	}
	return out, resp.Header.Get("X-Cache")
}

func TestQueryCacheHitMissAndInvalidation(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	q := base + "/g/query?seed=3&top=5"

	first, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", st)
	}
	second, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", st)
	}
	if fmt.Sprint(first["results"]) != fmt.Sprint(second["results"]) {
		t.Fatalf("cached results differ:\n%v\n%v", first["results"], second["results"])
	}
	// A different top is a different key.
	if _, st := doJSONCache(t, "GET", base+"/g/query?seed=3&top=7", "", http.StatusOK); st != "miss" {
		t.Fatalf("different top X-Cache = %q, want miss", st)
	}
	// PageRank and PPR cache too.
	for _, c := range []struct{ method, url, body string }{
		{"GET", base + "/g/pagerank?top=5", ""},
		{"POST", base + "/g/ppr", `{"seeds":{"3":0.5,"9":0.5},"top":5}`},
	} {
		if _, st := doJSONCache(t, c.method, c.url, c.body, http.StatusOK); st != "miss" {
			t.Fatalf("%s first X-Cache = %q, want miss", c.url, st)
		}
		if _, st := doJSONCache(t, c.method, c.url, c.body, http.StatusOK); st != "hit" {
			t.Fatalf("%s repeat X-Cache = %q, want hit", c.url, st)
		}
	}
	// PPR key must not depend on JSON seed order.
	if _, st := doJSONCache(t, "POST", base+"/g/ppr", `{"seeds":{"9":0.5,"3":0.5},"top":5}`, http.StatusOK); st != "hit" {
		t.Fatalf("reordered ppr seeds X-Cache = %q, want hit", st)
	}

	// An accepted update bumps the epoch: every old entry is unreachable.
	doJSON(t, "POST", base+"/g/edges", `{"op":"add","u":3,"v":40,"w":5}`, http.StatusOK)
	post, st := doJSONCache(t, "GET", q, "", http.StatusOK)
	if st != "miss" {
		t.Fatalf("post-update X-Cache = %q, want miss", st)
	}
	if fmt.Sprint(post["results"]) == fmt.Sprint(first["results"]) {
		t.Fatal("post-update results identical to pre-update results; stale vector served")
	}
	if _, st := doJSONCache(t, "GET", q, "", http.StatusOK); st != "hit" {
		t.Fatalf("post-update repeat X-Cache = %q, want hit", st)
	}
}

func TestCacheDisabledStillServes(t *testing.T) {
	s := New()
	s.CacheMaxBytes = -1
	ts := newHTTPServer(t, s)
	base := ts + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	for i := 0; i < 2; i++ {
		if _, st := doJSONCache(t, "GET", base+"/g/query?seed=1", "", http.StatusOK); st != "miss" {
			t.Fatalf("disabled cache X-Cache = %q, want miss", st)
		}
	}
}

// TestStatsEndpoint: the registry size and result-cache counters are
// served as /metrics series; the removed GET /v1/stats answers 404.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "GET", base+"/g/query?seed=1", "", http.StatusOK)
	doJSON(t, "GET", base+"/g/query?seed=1", "", http.StatusOK)
	body := scrape(t, ts.URL)
	if got := metricValue(t, body, "bear_graphs"); got != 1 {
		t.Fatalf("bear_graphs = %v", got)
	}
	if metricValue(t, body, "bear_cache_hits_total") < 1 || metricValue(t, body, "bear_cache_misses_total") < 1 {
		t.Fatalf("cache counters missing hits or misses:\n%s", body)
	}
	if metricValue(t, body, "bear_cache_entries") < 1 || metricValue(t, body, "bear_cache_bytes") <= 0 {
		t.Fatalf("cache size series empty:\n%s", body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}
}

// TestCoalescedQueriesShareOneSolve drives cachedScores directly with a
// gated solver so the coalesced path is deterministic: N concurrent
// identical requests must produce exactly one solve, one "miss", and N-1
// "coalesced".
func TestCoalescedQueriesShareOneSolve(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	e, ok := s.lookup("g")
	if !ok {
		t.Fatal("graph not registered")
	}

	const waiters = 6
	release := make(chan struct{})
	started := make(chan struct{})
	var solves, misses, coalesced int
	var mu sync.Mutex
	var wg sync.WaitGroup

	solve := func(first bool) func(context.Context) ([]float64, error) {
		return func(context.Context) ([]float64, error) {
			if first {
				close(started)
				<-release
			}
			mu.Lock()
			solves++
			mu.Unlock()
			return e.dyn.Query(5)
		}
	}
	hash := e.hasher("query").Int(5).Byte(0).Int(10).Sum()
	record := func(status string) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, status, err := s.cachedScores(context.Background(), e, hash, 10, solve(true))
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		record(status)
	}()
	<-started
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := s.cachedScores(context.Background(), e, hash, 10, solve(false))
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			record(status)
		}()
	}
	for s.flight.Coalesced() < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if solves != 1 {
		t.Fatalf("solve ran %d times, want 1", solves)
	}
	if misses != 1 || coalesced != waiters {
		t.Fatalf("miss/coalesced = %d/%d, want 1/%d", misses, coalesced, waiters)
	}
	// The flight's result was cached: the next request is a plain hit.
	if _, status, _ := s.cachedScores(context.Background(), e, hash, 10, solve(false)); status != "hit" {
		t.Fatalf("follow-up status = %q, want hit", status)
	}
}

func TestBatchEndpointMatchesSingleQueries(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	seeds := []int{0, 5, 17, 40, 63, 5} // duplicate included
	body := `{"seeds":[0,5,17,40,63,5],"top":5}`
	out, st := doJSONCache(t, "POST", base+"/g/batch", body, http.StatusOK)
	if st != "miss" {
		t.Fatalf("first batch X-Cache = %q, want miss", st)
	}
	results := out["results"].([]interface{})
	if len(results) != len(seeds) {
		t.Fatalf("batch returned %d results for %d seeds", len(results), len(seeds))
	}
	for i, raw := range results {
		slot := raw.(map[string]interface{})
		if int(slot["seed"].(float64)) != seeds[i] {
			t.Fatalf("slot %d seed = %v, want %d", i, slot["seed"], seeds[i])
		}
		single := doJSON(t, "GET", fmt.Sprintf("%s/g/query?seed=%d&top=5", base, seeds[i]), "", http.StatusOK)
		if fmt.Sprint(slot["results"]) != fmt.Sprint(single["results"]) {
			t.Fatalf("seed %d: batch results differ from single query:\nbatch:  %v\nsingle: %v",
				seeds[i], slot["results"], single["results"])
		}
	}
	// The single queries above hit the batch-written entries; a repeat
	// batch is all hits.
	out2, st := doJSONCache(t, "POST", base+"/g/batch", body, http.StatusOK)
	if st != "hit" {
		t.Fatalf("repeat batch X-Cache = %q, want hit", st)
	}
	for _, raw := range out2["results"].([]interface{}) {
		if c := raw.(map[string]interface{})["cache"]; c != "hit" {
			t.Fatalf("repeat batch slot cache = %v, want hit", c)
		}
	}
	// And the single-query endpoint hits entries the batch wrote.
	if _, st := doJSONCache(t, "GET", base+"/g/query?seed=17&top=5", "", http.StatusOK); st != "hit" {
		t.Fatalf("single query after batch X-Cache = %q, want hit", st)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)

	doJSON(t, "POST", base+"/g/batch", `{"seeds":[]}`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/g/batch", `{"seeds":[999999]}`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/g/batch", `not json`, http.StatusBadRequest)
	doJSON(t, "POST", base+"/missing/batch", `{"seeds":[1]}`, http.StatusNotFound)
	big, _ := json.Marshal(map[string]interface{}{"seeds": make([]int, maxBatchSeeds+1)})
	doJSON(t, "POST", base+"/g/batch", string(big), http.StatusBadRequest)
}

// TestBatchScoresFinite sanity-checks the scores the batch endpoint
// reports, not just their agreement with the single path.
func TestBatchScoresFinite(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/graphs"
	doJSON(t, "PUT", base+"/g", edgeListBody(), http.StatusCreated)
	out := doJSON(t, "POST", base+"/g/batch", `{"seeds":[2,3],"top":3}`, http.StatusOK)
	for _, raw := range out["results"].([]interface{}) {
		slot := raw.(map[string]interface{})
		rs := slot["results"].([]interface{})
		if len(rs) != 3 {
			t.Fatalf("slot results = %v", rs)
		}
		top := rs[0].(map[string]interface{})
		if top["node"].(float64) != slot["seed"].(float64) {
			t.Fatalf("seed should rank first: %v", slot)
		}
		for _, r := range rs {
			score := r.(map[string]interface{})["score"].(float64)
			if math.IsNaN(score) || math.IsInf(score, 0) || score <= 0 {
				t.Fatalf("bad score %v", score)
			}
		}
	}
}

// newHTTPServer is newTestServer for a caller-constructed Server.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
