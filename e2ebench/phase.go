package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// ledger counts every operation a run attempts, across all phases, and
// keeps the causes of failures so a non-zero error rate is always
// reported with its reason.
type ledger struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	mismatches int64
	causes     map[string]int
}

func newLedger() *ledger { return &ledger{causes: make(map[string]int)} }

func (l *ledger) record(err error, mismatch bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		return
	}
	l.failed++
	if mismatch {
		l.mismatches++
	}
	msg := err.Error()
	if len(msg) > 160 {
		msg = msg[:160]
	}
	l.causes[msg]++
}

// report prints the failure causes to standard error, most frequent
// first.
func (l *ledger) report() {
	l.mu.Lock()
	defer l.mu.Unlock()
	type kv struct {
		msg string
		n   int
	}
	var all []kv
	for m, n := range l.causes {
		all = append(all, kv{m, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n || (all[i].n == all[j].n && all[i].msg < all[j].msg) })
	for i, c := range all {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "e2ebench: ... %d more failure causes\n", len(all)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "e2ebench: failure x%d: %s\n", c.n, c.msg)
	}
}

// phase is one open-loop stretch of HTTP traffic at a fixed rate.
type phase struct {
	client  *http.Client
	base    string
	ops     []op
	rate    float64
	workers int
	// traceEvery > 0 traces every traceEvery-th operation (?trace=1 and
	// its id in opHeader, ids from firstID); the others run untraced in
	// the same phase, so the two sides see the same load.
	traceEvery int
	firstID    uint64
	check      func(*op, *response) error
}

type phaseResult struct {
	firstID    uint64
	traceEvery int
	ops        []op
	times      []timing
	outs       []outcome
}

func (p phase) run(l *ledger) phaseResult {
	outs := make([]outcome, len(p.ops))
	lp := loop{offsets: schedule(len(p.ops), p.rate), workers: p.workers}
	times := lp.run(func(i int) {
		traced := p.traceEvery > 0 && i%p.traceEvery == 0
		out := p.ops[i].do(p.client, p.base, traced, p.firstID+uint64(i), p.check)
		l.record(out.err, out.mismatch)
		outs[i] = out
	})
	return phaseResult{firstID: p.firstID, traceEvery: p.traceEvery, ops: p.ops, times: times, outs: outs}
}

// traced reports whether operation i ran traced.
func (r phaseResult) traced(i int) bool { return r.traceEvery > 0 && i%r.traceEvery == 0 }

// seedsPerSecond is the seeds in successful answers per second of wall
// time, from the first due time to the last completion.
func (r phaseResult) seedsPerSecond() float64 {
	n := 0
	var last time.Time
	for i, t := range r.times {
		if r.outs[i].err == nil {
			n += len(r.ops[i].seeds)
		}
		if t.end.After(last) {
			last = t.end
		}
	}
	if len(r.times) == 0 {
		return 0
	}
	return float64(n) / last.Sub(r.times[0].due).Seconds()
}
