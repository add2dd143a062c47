package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator. Operation i is due at t0 + i/rate whatever
// happened to earlier operations, and its latency is measured from that
// due time, not from when it was actually sent: when the system stalls,
// the requests that queued behind the stall are charged for the wait
// (no coordinated omission). A fixed pool of workers — one connection
// each — sends the operations in order; an operation whose worker is
// still busy with an earlier one waits in the client, which is exactly
// the queue a real caller at this rate would build.

// schedule returns the due offsets of n operations of an open loop at rate
// operations per second: evenly spaced, the first at 0.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// timing is what the generator observed about one operation.
type timing struct {
	due, start, end time.Time
	// slept is true when the worker was idle and waited for the due
	// time; start − due is then the generator's own lateness (timer and
	// scheduling slop), not client-side queueing.
	slept bool
}

func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// loop is one open-loop phase.
type loop struct {
	offsets []time.Duration
	workers int
}

// run drives the phase, calling do(i) for each operation from one of the
// workers, and returns once every worker has finished. do must record
// its own outcome; run records the timings.
func (l loop) run(do func(i int)) []timing {
	n := len(l.offsets)
	times := make([]timing, n)
	var next atomic.Int64
	t0 := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := &times[i]
				t.due = t0.Add(l.offsets[i])
				now := time.Now()
				if now.Before(t.due) {
					time.Sleep(t.due.Sub(now))
					now = time.Now()
					t.slept = true
				}
				t.start = now
				do(i)
				t.end = time.Now()
			}
		}()
	}
	wg.Wait()
	return times
}

// loopStats summarizes one phase's timings.
type loopStats struct {
	latMs  []float64 // from due time
	lateMs []float64 // generator lateness of operations whose worker slept
}

func summarize(times []timing, include func(i int) bool) loopStats {
	var s loopStats
	for i, t := range times {
		if include != nil && !include(i) {
			continue
		}
		s.latMs = append(s.latMs, ms(t.latency()))
		if t.slept {
			s.lateMs = append(s.lateMs, ms(t.start.Sub(t.due)))
		}
	}
	return s
}
