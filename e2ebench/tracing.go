package main

import (
	"context"
	"io"
	"net/http"
	"path"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's instrumentation, all of it benchmark-owned and outside
// the program: a middleware around each shard's handler, a middleware
// around the front's handler, and a RoundTripper handed to the front as
// cluster.Config.Transport. Request identity travels in two headers that
// the middlewares strip before the program's handlers run, so neither
// bearserve nor bearfront ever sees them:
//
//	opHeader    client → front: the load generator's operation id; the
//	            front middleware moves it into the request context, where
//	            the RoundTripper finds it on every shard call the front
//	            makes for that operation.
//	callHeader  front → shard: a shard-call id, set by the RoundTripper and
//	            read by the shard middleware.
const (
	opHeader   = "X-E2ebench-Op"
	callHeader = "X-E2ebench-Call"
)

// shardCall is one front → shard attempt as the front's transport saw it.
type shardCall struct {
	op, call   uint64
	start, end time.Time
}

// handled is one request as a shard's handler saw it.
type handled struct {
	shard    string
	endpoint string
	dur      time.Duration
	status   int
	cache    string // X-Cache: hit | miss | coalesced | ""
}

type tracer struct {
	nextCall atomic.Uint64

	mu      sync.Mutex
	calls   []shardCall
	handled map[uint64]handled
}

func newTracer() *tracer { return &tracer{handled: make(map[uint64]handled)} }

type opKey struct{}

// wrapFront moves the operation id from its header into the context.
func (t *tracer) wrapFront(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(opHeader); v != "" {
			r.Header.Del(opHeader)
			if id, err := strconv.ParseUint(v, 10, 64); err == nil {
				r = r.WithContext(context.WithValue(r.Context(), opKey{}, id))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// wrapShard times the shard's whole handler (admission, decode, cache,
// solve, encode) for requests that carry a call id.
func (t *tracer) wrapShard(id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(callHeader)
		if v == "" {
			h.ServeHTTP(w, r)
			return
		}
		r.Header.Del(callHeader)
		call, _ := strconv.ParseUint(v, 10, 64)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		rec := handled{
			shard:    id,
			endpoint: path.Base(r.URL.Path),
			dur:      time.Since(start),
			status:   sw.status,
			cache:    w.Header().Get("X-Cache"),
		}
		t.mu.Lock()
		t.handled[call] = rec
		t.mu.Unlock()
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// transport is the front's upstream RoundTripper in the traced run.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, ok := req.Context().Value(opKey{}).(uint64)
	if !ok {
		return tr.base.RoundTrip(req)
	}
	call := tr.t.nextCall.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(callHeader, strconv.FormatUint(call, 10))
	rec := shardCall{op: op, call: call, start: time.Now()}
	resp, err := tr.base.RoundTrip(req)
	if err != nil {
		rec.end = time.Now()
		tr.t.addCall(rec)
		return nil, err
	}
	// The attempt ends when the front has read the whole body.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		rec.end = time.Now()
		tr.t.addCall(rec)
	}}
	return resp, nil
}

func (t *tracer) addCall(c shardCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// snapshot returns the records gathered so far and clears them.
func (t *tracer) snapshot() ([]shardCall, map[uint64]handled) {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls, h := t.calls, t.handled
	t.calls, t.handled = nil, make(map[uint64]handled)
	return calls, h
}
