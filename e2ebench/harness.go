package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"bear/internal/cluster"
	"bear/server"
)

// listener is one loopback HTTP server owned by the benchmark process.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve %s: %v", l.url, err)
		}
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to exit.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// deployment is the set of servers a workload runs: bearserve shards
// behind a bearfront. target is where the load generator sends.
type deployment struct {
	shards    []*listener
	front     *listener
	stopFront context.CancelFunc
	target    string
}

// startShards starts n bearserve instances at their default settings.
// wrap, when non-nil, wraps each shard's handler (the traced run's timing
// middleware); it receives the shard id.
func startShards(n int, wrap func(id string, h http.Handler) http.Handler) ([]*listener, error) {
	var out []*listener
	for i := 0; i < n; i++ {
		h := server.New().Handler()
		if wrap != nil {
			h = wrap(shardID(i), h)
		}
		l, err := listen(h)
		if err != nil {
			for _, s := range out {
				s.close()
			}
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

func shardID(i int) string { return string(rune('a' + i)) }

// startFronted is two shards behind a bearfront at its default settings
// (R=2, adaptive hedging, health probes running). transport and
// wrapFront are the traced run's hooks; both may be nil.
func startFronted(wrapShard func(id string, h http.Handler) http.Handler, transport http.RoundTripper, wrapFront func(http.Handler) http.Handler) (*deployment, error) {
	shards, err := startShards(2, wrapShard)
	if err != nil {
		return nil, err
	}
	d := &deployment{shards: shards}
	cfg := cluster.Config{Transport: transport}
	for i, s := range shards {
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{ID: shardID(i), URL: s.url})
	}
	c, err := cluster.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	d.stopFront = cancel
	h := c.Handler()
	if wrapFront != nil {
		h = wrapFront(h)
	}
	if d.front, err = listen(h); err != nil {
		d.close()
		return nil, err
	}
	d.target = d.front.url
	return d, nil
}

func (d *deployment) close() {
	if d.front != nil {
		d.front.close()
	}
	if d.stopFront != nil {
		d.stopFront()
	}
	for _, s := range d.shards {
		s.close()
	}
}

// newClient is the load generator's HTTP client: at most conns
// connections to any one target, no overall timeout (latency is measured,
// not capped), and its own transport so it shares no pool with the front.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}
