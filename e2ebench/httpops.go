package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// op is one HTTP read of an open-loop workload.
type op struct {
	kind  string // query | topk | batch | candidates
	graph string
	seeds []int // one for query/topk, a batch for batch/candidates
	k     int
}

// readOps are the read endpoints in reporting order.
var readOps = []string{"query", "topk", "batch", "candidates"}

// outcome is what the client observed for one operation.
type outcome struct {
	err      error // transport error, bad status, bad body or oracle mismatch
	mismatch bool  // err is an oracle mismatch

	send, recv time.Time // actual send and receive (not the due time)
	shard      string    // X-Shard
	hedged     bool      // X-Hedge: win
	degraded   string    // X-Degraded
	spans      []span    // ?trace=1 stage breakdown
}

type span struct {
	Span string  `json:"span"`
	Ms   float64 `json:"ms"`
}

// response covers every read body shape the workloads parse.
type response struct {
	Results json.RawMessage `json:"results"`
	Pruned  bool            `json:"pruned"`
	Trace   []span          `json:"trace"`
}

type seedResults struct {
	Seed       int      `json:"seed"`
	Results    []scored `json:"results"`
	Candidates []scored `json:"candidates"`
}

// request renders o as an HTTP request against base. traced adds
// ?trace=1.
func (o *op) request(base string, traced bool) (*http.Request, error) {
	g := base + "/v1/graphs/" + o.graph
	var method, url string
	var body []byte
	switch o.kind {
	case "query":
		method, url = http.MethodGet, fmt.Sprintf("%s/query?seed=%d&top=%d", g, o.seeds[0], o.k)
	case "topk":
		method, url = http.MethodGet, fmt.Sprintf("%s/topk?seed=%d&k=%d", g, o.seeds[0], o.k)
	case "batch":
		method, url = http.MethodPost, g+"/batch"
		body, _ = json.Marshal(map[string]interface{}{"seeds": o.seeds, "top": o.k})
	case "candidates":
		method, url = http.MethodPost, g+"/candidates"
		body, _ = json.Marshal(map[string]interface{}{"seeds": o.seeds, "k": o.k})
	default:
		return nil, fmt.Errorf("unknown op kind %q", o.kind)
	}
	if traced {
		if method == http.MethodGet {
			url += "&trace=1"
		} else {
			url += "?trace=1"
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// do sends o and records the outcome. A traced operation asks for the
// stage breakdown and carries its id in opHeader. check validates a 200
// body; it is called after the receive time is taken, so checking costs
// no measured latency.
func (o *op) do(c *http.Client, base string, traced bool, id uint64, check func(*op, *response) error) outcome {
	var out outcome
	req, err := o.request(base, traced)
	if err != nil {
		out.err = err
		return out
	}
	if traced {
		req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	out.send = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		out.recv = time.Now()
		out.err = err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.recv = time.Now()
	out.shard = resp.Header.Get("X-Shard")
	out.hedged = resp.Header.Get("X-Hedge") == "win"
	out.degraded = resp.Header.Get("X-Degraded")
	switch {
	case err != nil:
		out.err = fmt.Errorf("%s: reading body: %w", o.kind, err)
		return out
	case resp.StatusCode/100 != 2:
		out.err = fmt.Errorf("%s %s: HTTP %d: %s", o.kind, o.graph, resp.StatusCode, bytes.TrimSpace(body))
		return out
	case out.degraded != "":
		out.err = fmt.Errorf("%s %s: X-Degraded: %s", o.kind, o.graph, out.degraded)
		return out
	}
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		out.err = fmt.Errorf("%s: decoding body: %w", o.kind, err)
		return out
	}
	out.spans = r.Trace
	if check != nil {
		if err := check(o, &r); err != nil {
			out.err = err
			out.mismatch = true
		}
	}
	return out
}

// readResults decodes the per-seed results of any read body into one
// list per requested seed, in request order.
func readResults(o *op, r *response) ([][]scored, error) {
	switch o.kind {
	case "query", "topk":
		var res []scored
		if err := json.Unmarshal(r.Results, &res); err != nil {
			return nil, err
		}
		return [][]scored{res}, nil
	case "batch", "candidates":
		var res []seedResults
		if err := json.Unmarshal(r.Results, &res); err != nil {
			return nil, err
		}
		if len(res) != len(o.seeds) {
			return nil, fmt.Errorf("%s: %d seed results for %d seeds", o.kind, len(res), len(o.seeds))
		}
		out := make([][]scored, len(res))
		for i, sr := range res {
			if sr.Seed != o.seeds[i] {
				return nil, fmt.Errorf("%s: result %d is for seed %d, want %d", o.kind, i, sr.Seed, o.seeds[i])
			}
			out[i] = sr.Results
			if o.kind == "candidates" {
				out[i] = sr.Candidates
			}
		}
		return out, nil
	}
	return nil, nil
}

// verifier checks read answers against per-graph oracles. Seeds outside
// the sample get a shape check only.
type verifier struct {
	oracles map[string]*oracle
}

func (v *verifier) check(o *op, r *response) error {
	lists, err := readResults(o, r)
	if err != nil {
		return err
	}
	orc := v.oracles[o.graph]
	for i, seed := range o.seeds {
		got := lists[i]
		want := orc.vecs[seed]
		if want == nil {
			if len(got) == 0 || len(got) > o.k {
				return fmt.Errorf("%s %s seed %d: %d results for k=%d", o.kind, o.graph, seed, len(got), o.k)
			}
			continue
		}
		var eligible func(int) bool
		excluded := 0
		if o.kind == "candidates" {
			eligible, excluded = candidateFilter(orc.g, seed), 1+orc.g.OutDegree(seed)
		}
		if err := checkTopK(got, want, o.k, eligible, excluded, o.kind == "topk" && r.Pruned); err != nil {
			return fmt.Errorf("%s %s seed %d: %w", o.kind, o.graph, seed, err)
		}
	}
	return nil
}
