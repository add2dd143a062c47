package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"bear"
	"bear/internal/bench"
)

// graphNames are the three dataset analogues every workload serves: a
// hub-bound preferential-attachment graph (Schur stage dominates), a
// star-mail graph (spoke blocks dominate) and a strongly local R-MAT web
// graph (near-diagonal factors, push certifies small k).
var graphNames = []string{"routing", "email", "web"}

// scale is the dataset size multiplier of internal/bench.Datasets. At
// scale 1 the email top-k loss at k=100 shows (see e2ebench/README.md).
const scale = 1.0

// dataset is one served graph plus the seeded request-side state.
type dataset struct {
	name string
	g    *bear.Graph
	// rankNode maps a Zipf popularity rank to a node id (a seeded
	// permutation, so each seed heats a different set of nodes).
	rankNode []int
}

func loadDatasets(rng *rand.Rand) ([]*dataset, error) {
	out := make([]*dataset, 0, len(graphNames))
	for _, name := range graphNames {
		d, err := bench.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Make(scale)
		out = append(out, &dataset{
			name:     name,
			g:        g,
			rankNode: rng.Perm(g.N()),
		})
	}
	return out, nil
}

// zipfExponent skews seed popularity as the server's own hot-path
// benchmark does (zipfSeeds in server/bench_test.go): rank r is drawn with
// probability proportional to 1/(r+1)^1.2.
const zipfExponent = 1.2

func (d *dataset) zipfSeed(rng *rand.Rand) int {
	return d.rankNode[rand.NewZipf(rng, zipfExponent, 1, uint64(len(d.rankNode)-1)).Uint64()]
}

// matrixMarket renders g as a MatrixMarket body, which (unlike an edge
// list) carries the node count, so trailing isolated nodes survive the
// upload.
func matrixMarket(g *bear.Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", g.N(), g.N(), g.M())
	buf := make([]byte, 0, 64)
	for u := 0; u < g.N(); u++ {
		dst, w := g.Out(u)
		for i, v := range dst {
			buf = strconv.AppendInt(buf[:0], int64(u+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, w[i], 'g', -1, 64)
			buf = append(buf, '\n')
			b.Write(buf)
		}
	}
	return b.Bytes()
}

// edgeSet is the benchmark's own copy of a graph under writes: the
// reference the final correctness check rebuilds the oracle from.
type edgeSet struct {
	n   int
	out []map[int]float64
}

func newEdgeSet(g *bear.Graph) *edgeSet {
	e := &edgeSet{n: g.N(), out: make([]map[int]float64, g.N())}
	for u := 0; u < g.N(); u++ {
		dst, w := g.Out(u)
		e.out[u] = make(map[int]float64, len(dst))
		for i, v := range dst {
			e.out[u][v] = w[i]
		}
	}
	return e
}

func (e *edgeSet) graph() *bear.Graph {
	b := bear.NewGraphBuilder(e.n)
	for u, row := range e.out {
		vs := make([]int, 0, len(row))
		for v := range row {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			b.AddEdge(u, v, row[v])
		}
	}
	return b.Build()
}
