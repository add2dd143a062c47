package main

import (
	"math/rand"
	"sort"
)

// writePlanner draws a seeded stream of edge writes against the planned
// state of a graph (every write it has handed out applied). No directed
// pair is ever written twice, so the writes commute: whatever order the
// concurrent workers deliver them in, the final graph is the initial one
// plus the successful adds minus the successful removes — which is what
// the benchmark's own copy records.
type writePlanner struct {
	rng     *rand.Rand
	planned *edgeSet
	initial []int // initial out-degree
	removed []int // planned removals per row
	touched map[[2]int]bool
}

// edgeWrite is one planned edge update.
type edgeWrite struct {
	Op   string // add | remove
	U, V int
	W    float64
}

func newWritePlanner(rng *rand.Rand, e *edgeSet) *writePlanner {
	p := &writePlanner{rng: rng, planned: e, touched: make(map[[2]int]bool),
		initial: make([]int, e.n), removed: make([]int, e.n)}
	for u, row := range e.out {
		p.initial[u] = len(row)
	}
	return p
}

// Shares of the churn write mix.
const (
	triadicShare = 0.4 // add u→w closing a path u→v→w
	removeShare  = 0.3 // remove an existing edge
)

// next returns the next write, or nil when no fresh pair is found.
func (p *writePlanner) next() *edgeWrite {
	x := p.rng.Float64()
	var w *edgeWrite
	switch {
	case x < triadicShare:
		w = p.triadic()
	case x < triadicShare+removeShare:
		w = p.remove()
	}
	if w == nil {
		w = p.randomAdd()
	}
	return w
}

const planTries = 64

func (p *writePlanner) fresh(u, v int) bool {
	return u != v && !p.touched[[2]int{u, v}]
}

func (p *writePlanner) take(op string, u, v int) *edgeWrite {
	p.touched[[2]int{u, v}] = true
	if op == "add" {
		p.planned.out[u][v] = 1
		return &edgeWrite{Op: op, U: u, V: v, W: 1}
	}
	delete(p.planned.out[u], v)
	p.removed[u]++
	return &edgeWrite{Op: op, U: u, V: v}
}

func (p *writePlanner) triadic() *edgeWrite {
	for t := 0; t < planTries; t++ {
		u := p.rng.Intn(p.planned.n)
		v, ok := p.anyOut(u)
		if !ok {
			continue
		}
		w, ok := p.anyOut(v)
		if !ok {
			continue
		}
		if _, exists := p.planned.out[u][w]; !exists && p.fresh(u, w) {
			return p.take("add", u, w)
		}
	}
	return nil
}

// remove deletes an edge of a row that keeps at least one of its initial
// edges, so no node ever becomes dangling.
func (p *writePlanner) remove() *edgeWrite {
	for t := 0; t < planTries; t++ {
		u := p.rng.Intn(p.planned.n)
		if p.initial[u]-p.removed[u] < 2 {
			continue
		}
		v, ok := p.anyOut(u)
		if ok && p.fresh(u, v) {
			return p.take("remove", u, v)
		}
	}
	return nil
}

func (p *writePlanner) randomAdd() *edgeWrite {
	for t := 0; t < planTries; t++ {
		u := p.rng.Intn(p.planned.n)
		v := p.rng.Intn(p.planned.n)
		if _, exists := p.planned.out[u][v]; !exists && p.fresh(u, v) {
			return p.take("add", u, v)
		}
	}
	return nil
}

// anyOut picks an out-neighbor of u uniformly. Map order is random, so
// the draw indexes a sorted view to stay a function of the seed.
func (p *writePlanner) anyOut(u int) (int, bool) {
	row := p.planned.out[u]
	if len(row) == 0 {
		return 0, false
	}
	vs := make([]int, 0, len(row))
	for v := range row {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs[p.rng.Intn(len(vs))], true
}
