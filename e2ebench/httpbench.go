package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"
)

// httpBench is an open-loop HTTP workload's state: the deployment, the
// load generator's client and the workload's operation mix.
type httpBench struct {
	cfg    config
	dep    *deployment
	client *http.Client
	tr     *tracer // nil in the untraced run
	led    *ledger
	nextID uint64
	// mix draws the n operations of a phase.
	mix   func(n int) []op
	check func(*op, *response) error
}

// phase runs the workload's mix open-loop at rate for d, tracing every
// traceEvery-th operation (none when 0).
func (b *httpBench) phase(rate float64, d time.Duration, traceEvery int) phaseResult {
	ops := b.mix(int(rate * d.Seconds()))
	p := phase{
		client: b.client, base: b.dep.target, ops: ops, rate: rate,
		workers: b.cfg.workers, traceEvery: traceEvery, firstID: b.nextID, check: b.check,
	}
	b.nextID += uint64(len(ops))
	// Start the clock without the garbage of generating the phase.
	runtime.GC()
	return p.run(b.led)
}

// upload is one graph registered at set-up.
type upload struct {
	name string
	body []byte
}

// setup registers every graph through the deployment's target and waits
// until each answers a query, rounds times (a PUT replaces the graph),
// and returns the median wall time of a round.
func (b *httpBench) setup(ups []upload, rounds int) (float64, error) {
	var times []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, u := range ups {
			if err := b.put(u); err != nil {
				return 0, err
			}
		}
		for _, u := range ups {
			if err := b.ready(u.name); err != nil {
				return 0, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

func (b *httpBench) put(u upload) error {
	req, err := http.NewRequest(http.MethodPut, b.dep.target+"/v1/graphs/"+u.name, bytes.NewReader(u.body))
	if err != nil {
		return err
	}
	resp, body, err := b.send(req)
	if err != nil {
		return fmt.Errorf("PUT %s: %w", u.name, err)
	}
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-Degraded") != "" {
		return fmt.Errorf("PUT %s: HTTP %d %s: %s", u.name, resp.StatusCode, resp.Header.Get("X-Degraded"), bytes.TrimSpace(body))
	}
	return nil
}

func (b *httpBench) ready(name string) error {
	resp, body, err := b.get("/v1/graphs/" + name + "/query?seed=0&top=1")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("graph %s not answering: HTTP %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

func (b *httpBench) get(path string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, b.dep.target+path, nil)
	if err != nil {
		return nil, nil, err
	}
	return b.send(req)
}

func (b *httpBench) send(req *http.Request) (*http.Response, []byte, error) {
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// liveHeapMB forces collections and returns the live heap in MiB: the
// least of three reads, so allocation by background goroutines between
// a collection and its read does not count.
func liveHeapMB() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		best = math.Min(best, float64(m.HeapAlloc)/(1<<20))
	}
	return best
}

// nominalMetrics fills the end-to-end metrics of an untraced nominal
// phase: median read latency from due time and the seed throughput
// delivered.
func nominalMetrics(v map[string]float64, r phaseResult) {
	v["read_p50_ms"] = percentile(summarize(r.times, nil).latMs, 0.5)
	v["seeds_per_s"] = r.seedsPerSecond()
	flagLag(r)
}

// lagLimit is the generator lateness p99 beyond which a run is flagged.
const lagLimit = 5 * time.Millisecond

// flagLag warns when the open-loop generator itself ran late: the run
// still times every request from its due time, so the lag shows in the
// latencies, but the offered rate was not what the schedule promised.
func flagLag(r phaseResult) {
	if late := percentile(summarize(r.times, nil).lateMs, 0.99); late > ms(lagLimit) {
		fmt.Fprintf(os.Stderr, "e2ebench: WARNING generator lagged: late p99 %.2fms\n", late)
	}
}
