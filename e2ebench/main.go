// Command e2ebench is the repository's end-to-end benchmark. One
// invocation sets up one named workload from a seed, drives it for a
// fixed time, checks every sampled answer against the power-method
// oracle, and prints one JSON line of metrics:
//
//	go build -o e2ebench . && ./e2ebench --workload front-zipf --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	front-zipf  open loop over TCP into a bearfront over two bearserve shards
//	solve-mix   in-process closed loop over the core query calls
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer breakdown. The servers run inside this
// process on loopback listeners, at their default settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workers is the load generator's concurrency and its connection
	// count per target: GOMAXPROCS, i.e. nproc.
	workers int
}

func (c config) measure() time.Duration { return time.Duration(c.seconds) * time.Second }

// report is what a workload hands back: counts plus named metric values.
type report struct {
	attempted, failed, mismatches int64
	values                        map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"front-zipf": runFrontZipf,
	"solve-mix":  runSolveMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: front-zipf or solve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload front-zipf|solve-mix, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)

	start := time.Now()
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := render(cfg, rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stderr, "e2ebench: %s seed=%d trace=%v done in %.1fs\n", cfg.workload, cfg.seed, cfg.trace, time.Since(start).Seconds())
	fmt.Fprintln(stdout, line)
	return 0
}

// render builds the result line: exactly the end-to-end metrics, or
// exactly the per-layer ones, each with its catalog unit.
func render(cfg config, rep *report) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	out := resultLine{
		Correct:   rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.values[d.name]
		switch {
		case cfg.trace && !ok && isBypassed(cfg.workload, d.name):
			v = 0
		case cfg.trace && ok && math.IsNaN(v):
			fmt.Fprintf(os.Stderr, "e2ebench: %s had no samples this run; reported as 0\n", d.name)
			v = 0
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics not measured: %v", missing)
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// finish turns the ledger into the report.
func finish(led *ledger, v map[string]float64) *report {
	led.report()
	led.mu.Lock()
	defer led.mu.Unlock()
	v["error_rate"] = ratio(float64(led.failed), float64(led.attempted))
	return &report{attempted: led.attempted, failed: led.failed, mismatches: led.mismatches, values: v}
}

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median.
const setupRounds = 9

// warmup is the untimed lead-in of every workload: caches, pools and
// the front's latency estimate settle before measuring.
const warmup = 2 * time.Second
