package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"bear"
)

// testFixtureGraph rebuilds the same graph edgeListBody serves, so tests
// can compute expected answers with the library directly.
func testFixtureGraph() *bear.Graph {
	return bear.GenerateCavemanHubs(bear.CavemanHubsConfig{
		Communities: 6, Size: 12, PIntra: 0.4, Hubs: 3, HubDeg: 10, Seed: 1,
	})
}

func TestTopKEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	g := testFixtureGraph()
	d, err := bear.NewDynamic(g, bear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 40, g.N() - 1} {
		exact, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := bear.TopK(exact, 5)
		out := doJSON(t, "GET", fmt.Sprintf("%s/v1/graphs/g/topk?seed=%d&k=5", ts.URL, seed), "", http.StatusOK)
		results := out["results"].([]interface{})
		if len(results) != len(want) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(results), len(want))
		}
		gotSet := map[int]bool{}
		for _, it := range results {
			gotSet[int(it.(map[string]interface{})["node"].(float64))] = true
		}
		for _, node := range want {
			if !gotSet[node] {
				t.Fatalf("seed %d: exact top-5 node %d missing from %v", seed, node, gotSet)
			}
		}
		if _, ok := out["pruned"]; ok {
			t.Fatalf("seed %d: response still carries the removed pruned field: %v", seed, out)
		}
	}
}

func TestTopKEndpointCachesAndValidates(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	first := get("/v1/graphs/g/topk?seed=1&k=3")
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d cache %q", first.StatusCode, first.Header.Get("X-Cache"))
	}
	second := get("/v1/graphs/g/topk?seed=1&k=3")
	if second.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request: cache %q, want hit", second.Header.Get("X-Cache"))
	}
	// A different k is a different key.
	other := get("/v1/graphs/g/topk?seed=1&k=4")
	if other.Header.Get("X-Cache") != "miss" {
		t.Fatalf("k=4 request: cache %q, want miss", other.Header.Get("X-Cache"))
	}

	doJSON(t, "GET", ts.URL+"/v1/graphs/g/topk?seed=zzz&k=3", "", http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/v1/graphs/g/topk?seed=999999&k=3", "", http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/v1/graphs/g/topk?seed=1&k=0", "", http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/v1/graphs/g/topk?seed=1&k=-2", "", http.StatusBadRequest)
	doJSON(t, "GET", ts.URL+"/v1/graphs/missing/topk?seed=1", "", http.StatusNotFound)
}

func TestCandidatesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	g := testFixtureGraph()
	d, err := bear.NewDynamic(g, bear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[0,7,40],"k":5}`, http.StatusOK)
	results := out["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("%d result slots, want 3", len(results))
	}
	for _, it := range results {
		slot := it.(map[string]interface{})
		seed := int(slot["seed"].(float64))
		exact, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := bear.TopKCandidates(g, exact, seed, 5)
		cands := slot["candidates"].([]interface{})
		if len(cands) != len(want) {
			t.Fatalf("seed %d: %d candidates, want %d", seed, len(cands), len(want))
		}
		for i, c := range cands {
			node := int(c.(map[string]interface{})["node"].(float64))
			if node != want[i] {
				t.Fatalf("seed %d: candidate[%d] = %d, want %d", seed, i, node, want[i])
			}
			// dappr semantics: never the seed, never an existing out-edge.
			if node == seed || g.HasEdge(seed, node) {
				t.Fatalf("seed %d: candidate %d is the seed or an existing neighbor", seed, node)
			}
		}
	}

	// Per-seed entries are cached: repeating one seed must come back a hit.
	out = doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[7],"k":5}`, http.StatusOK)
	slot := out["results"].([]interface{})[0].(map[string]interface{})
	if slot["cache"] != "hit" {
		t.Fatalf("repeat seed 7: cache %v, want hit", slot["cache"])
	}
}

func TestCandidatesEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[]}`, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[99999]}`, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[-1]}`, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `not json`, http.StatusBadRequest)
	doJSON(t, "POST", ts.URL+"/v1/graphs/missing/candidates", `{"seeds":[0]}`, http.StatusNotFound)

	big := `{"seeds":[` + strings.Repeat("0,", maxBatchSeeds) + `0]}`
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", big, http.StatusBadRequest)
}

// TestCandidatesExcludeFreshEdges checks that the epoch-keyed cache does
// not serve stale candidate sets after an edge update makes a former
// candidate an existing neighbor.
func TestCandidatesExcludeFreshEdges(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	out := doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[2],"k":3}`, http.StatusOK)
	cands := out["results"].([]interface{})[0].(map[string]interface{})["candidates"].([]interface{})
	if len(cands) == 0 {
		t.Fatal("no candidates for seed 2")
	}
	top := int(cands[0].(map[string]interface{})["node"].(float64))

	// Accept the link: the top candidate becomes an out-neighbor.
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges",
		fmt.Sprintf(`{"op":"add","u":2,"v":%d,"w":1}`, top), http.StatusOK)

	out = doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[2],"k":3}`, http.StatusOK)
	slot := out["results"].([]interface{})[0].(map[string]interface{})
	if slot["cache"] != "miss" {
		t.Fatalf("post-update request served from cache: %v", slot["cache"])
	}
	for _, c := range slot["candidates"].([]interface{}) {
		if int(c.(map[string]interface{})["node"].(float64)) == top {
			t.Fatalf("node %d still a candidate after becoming a neighbor", top)
		}
	}
}

func TestPPRRejectsAllZeroWeights(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)

	out := doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", `{"seeds":{"0":0,"3":0.0}}`, http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "must not all be zero") {
		t.Fatalf("error %q does not name the all-zero rule", msg)
	}
	// A mix of zero and positive weights stays accepted.
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/ppr", `{"seeds":{"0":0,"3":0.5}}`, http.StatusOK)
}

func TestTopKMetricCounts(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "PUT", ts.URL+"/v1/graphs/g", edgeListBody(), http.StatusCreated)
	doJSON(t, "POST", ts.URL+"/v1/graphs/g/candidates", `{"seeds":[0],"k":3}`, http.StatusOK)
	doJSON(t, "GET", ts.URL+"/v1/graphs/g/topk?seed=0&k=3", "", http.StatusOK)

	body := scrape(t, ts.URL)
	if !strings.Contains(body, "bear_candidates_requests_total 1") {
		t.Errorf("metrics missing bear_candidates_requests_total 1")
	}
}
