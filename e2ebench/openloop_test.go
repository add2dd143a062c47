package main

import (
	"testing"
	"time"
)

func TestScheduleIsEvenAndBounded(t *testing.T) {
	s := schedule(400, 200)
	for i := range s {
		want := time.Duration(i) * 5 * time.Millisecond
		if d := s[i] - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("offset %d = %v, want %v", i, s[i], want)
		}
	}
	if s[len(s)-1] >= 2*time.Second {
		t.Fatalf("last offset %v is not before the 2s phase end", s[len(s)-1])
	}
}

// An overloaded open loop must charge queueing to later requests: with
// one worker and a service time twice the interval, the k-th request
// waits about k·(service − interval), and that wait is in its latency.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const n = 20
	interval := 2 * time.Millisecond
	service := 4 * time.Millisecond
	l := loop{offsets: schedule(n, 1/interval.Seconds()), workers: 1}
	times := l.run(func(int) { time.Sleep(service) })
	if len(times) != n {
		t.Fatalf("len = %d", len(times))
	}
	last := times[n-1]
	minWait := time.Duration(n-1) * (service - interval)
	if got := last.start.Sub(last.due); got < minWait {
		t.Errorf("last request started %v after its due time, want ≥ %v", got, minWait)
	}
	if got := last.latency(); got < minWait+service {
		t.Errorf("last latency %v hides the queue (want ≥ %v)", got, minWait+service)
	}
	if last.slept {
		t.Errorf("a queued request must not count as generator lateness")
	}
}

// An idle open loop sends on time: requests start at their due times,
// the generator's lateness is recorded, and latency is the service time.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	l := loop{offsets: schedule(30, 100), workers: 2}
	times := l.run(func(int) { time.Sleep(time.Millisecond) })
	st := summarize(times, nil)
	if len(st.latMs) != 30 {
		t.Fatalf("timed %d of 30 operations", len(st.latMs))
	}
	if len(st.lateMs) < 25 {
		t.Errorf("only %d of 30 idle sends recorded generator lateness", len(st.lateMs))
	}
	for i := 1; i < len(times); i++ {
		if !times[i].due.After(times[i-1].due) {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
}
