package fault

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// HTTP-level fault injection: an Injector wraps an http.Handler and applies
// a scripted sequence of per-request Steps — added latency (with optional
// deterministic jitter), short-circuited error statuses, or aborted
// connections (a transport-level failure, what a killed process looks like
// to the caller). Scripts make timing-sensitive behavior testable without
// sleeping on real probabilities: "slow twice, then fast" is two Steps, so
// hedging and ejection thresholds fire on exactly the request the test
// expects.

// Step describes the fault applied to one request.
type Step struct {
	// Delay is slept before the request is handled (or aborted).
	Delay time.Duration
	// Jitter adds a pseudo-random extra sleep in [0, Jitter), drawn from
	// the injector's seeded generator — deterministic for a fixed seed and
	// request order.
	Jitter time.Duration
	// Status, when nonzero, short-circuits the response with this HTTP
	// status and a small JSON error body, never reaching the wrapped
	// handler.
	Status int
	// Abort, when set, kills the connection without writing a response;
	// the client sees a transport error (EOF), as if the process died
	// mid-request.
	Abort bool
}

// Slow is shorthand for a pure-latency step.
func Slow(d time.Duration) Step { return Step{Delay: d} }

// Injector applies Steps to successive requests in script order. When the
// script runs out the zero Step (pass through untouched) applies, unless
// Repeat is set, in which case the last step repeats forever. The Down
// switch overrides everything with Abort — flipping it models killing and
// restarting the wrapped server without tearing down the listener.
//
// All methods are safe for concurrent use; concurrent requests consume
// script steps in arrival order.
type Injector struct {
	mu     sync.Mutex
	steps  []Step
	i      int
	repeat bool
	down   bool
	rng    *rand.Rand
	served int64
}

// NewInjector returns an Injector with no script (every request passes
// through). seed fixes the jitter sequence.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Script replaces the step sequence and rewinds it. With repeat set the
// last step applies to every request after the script runs out; otherwise
// later requests pass through untouched.
func (in *Injector) Script(repeat bool, steps ...Step) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.steps = append([]Step(nil), steps...)
	in.i = 0
	in.repeat = repeat
}

// SetDown toggles the kill switch: while down, every request aborts its
// connection regardless of the script.
func (in *Injector) SetDown(down bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.down = down
}

// Served reports how many requests have entered the injector.
func (in *Injector) Served() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.served
}

// next consumes the step for one arriving request.
func (in *Injector) next() Step {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.served++
	if in.down {
		return Step{Abort: true}
	}
	var st Step
	switch {
	case in.i < len(in.steps):
		st = in.steps[in.i]
		in.i++
	case in.repeat && len(in.steps) > 0:
		st = in.steps[len(in.steps)-1]
	default:
		return Step{}
	}
	if st.Jitter > 0 {
		st.Delay += time.Duration(in.rng.Int63n(int64(st.Jitter)))
		st.Jitter = 0
	}
	return st
}

// Wrap returns next behind the injector.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := in.next()
		if st.Delay > 0 {
			t := time.NewTimer(st.Delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				panic(http.ErrAbortHandler)
			}
		}
		switch {
		case st.Abort:
			// net/http recognizes ErrAbortHandler and drops the connection
			// without logging a stack — the caller sees a transport error.
			panic(http.ErrAbortHandler)
		case st.Status != 0:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(st.Status)
			_, _ = w.Write([]byte(`{"error":"fault: injected failure"}`))
		default:
			next.ServeHTTP(w, r)
		}
	})
}
