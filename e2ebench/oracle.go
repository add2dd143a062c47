package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bear"
)

// The correctness oracle: the power method (bear.SolveIterative), an
// algorithm independent of block elimination, run to a convergence
// threshold far below the comparison tolerance.
const (
	// oracleEps is the power method's L1 stopping threshold; its
	// remaining error is at most oracleEps·(1−c)/c ≈ 2e-10 at c = 0.05.
	oracleEps = 1e-11
	// scoreTol is the largest accepted absolute difference between a
	// returned score and the oracle's. Set-membership checks use the
	// same slack, so exact ties cannot fail a correct answer.
	scoreTol = 1e-8
	// oracleHot and oracleCold size the sampled seed set per graph: the
	// most popular Zipf ranks (so most read traffic is checked) plus
	// uniformly drawn nodes.
	oracleHot  = 12
	oracleCold = 6
)

// scored is one ranked (node, score) pair as the server returns it.
type scored struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// oracle holds exact reference vectors for a sample of seeds of one graph.
type oracle struct {
	g    *bear.Graph
	vecs map[int]*reference
}

// reference is one seed's exact scores plus the node ids ranked by them
// (descending, ties by ascending id), so a top-k check costs O(k).
type reference struct {
	scores []float64
	ranked []int
}

func newReference(scores []float64) *reference {
	ranked := make([]int, len(scores))
	for i := range ranked {
		ranked[i] = i
	}
	sort.Slice(ranked, func(a, b int) bool {
		sa, sb := scores[ranked[a]], scores[ranked[b]]
		return sa > sb || (sa == sb && ranked[a] < ranked[b])
	})
	return &reference{scores: scores, ranked: ranked}
}

// sampleSeeds picks the checked seeds of d: the hottest Zipf ranks and a
// few uniform ones, deduplicated, in a deterministic order.
func sampleSeeds(d *dataset, rng *rand.Rand) []int {
	seen := make(map[int]bool)
	var out []int
	for r := 0; r < oracleHot && r < len(d.rankNode); r++ {
		seen[d.rankNode[r]] = true
		out = append(out, d.rankNode[r])
	}
	for len(out) < oracleHot+oracleCold && len(out) < d.g.N() {
		s := rng.Intn(d.g.N())
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func newOracle(g *bear.Graph, seeds []int) (*oracle, error) {
	o := &oracle{g: g, vecs: make(map[int]*reference, len(seeds))}
	q := make([]float64, g.N())
	for _, s := range seeds {
		q[s] = 1
		v, err := bear.SolveIterative(g, 0, q, oracleEps)
		q[s] = 0
		if err != nil {
			return nil, fmt.Errorf("oracle for seed %d: %w", s, err)
		}
		o.vecs[s] = newReference(v)
	}
	return o, nil
}

// checkVector compares a full score vector against the oracle.
func checkVector(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("vector length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= scoreTol) {
			return fmt.Errorf("score of node %d is %.12g, oracle %.12g", i, got[i], want[i])
		}
	}
	return nil
}

// checkTopK validates a returned top-k list against the oracle: it must
// hold min(k, eligible) distinct eligible nodes, each score must match
// the oracle (or, for a push-certified answer, be a lower bound of it),
// and no eligible node left out may beat the weakest one returned by more
// than the tolerance — a set check that near-ties cannot fail. excluded
// counts the ineligible nodes; eligible == nil admits every node.
func checkTopK(got []scored, ref *reference, k int, eligible func(int) bool, excluded int, lowerBound bool) error {
	want := ref.scores
	if wantLen := min(k, len(want)-excluded); len(got) != wantLen {
		return fmt.Errorf("returned %d nodes, want %d", len(got), wantLen)
	}
	in := make(map[int]bool, len(got))
	weakest := math.Inf(1)
	for _, r := range got {
		if r.Node < 0 || r.Node >= len(want) {
			return fmt.Errorf("node %d out of range", r.Node)
		}
		if in[r.Node] {
			return fmt.Errorf("node %d returned twice", r.Node)
		}
		if eligible != nil && !eligible(r.Node) {
			return fmt.Errorf("node %d is not eligible", r.Node)
		}
		in[r.Node] = true
		exact := want[r.Node]
		if lowerBound {
			if !(r.Score <= exact+scoreTol) {
				return fmt.Errorf("node %d bound %.12g exceeds oracle %.12g", r.Node, r.Score, exact)
			}
		} else if d := math.Abs(r.Score - exact); !(d <= scoreTol) {
			return fmt.Errorf("node %d score %.12g, oracle %.12g", r.Node, r.Score, exact)
		}
		weakest = math.Min(weakest, exact)
	}
	for _, v := range ref.ranked {
		if want[v] <= weakest+scoreTol {
			break
		}
		if !in[v] && (eligible == nil || eligible(v)) {
			return fmt.Errorf("node %d (oracle %.12g) missing from the top %d (weakest %.12g)", v, want[v], k, weakest)
		}
	}
	return nil
}

// candidateFilter is the eligibility rule of link-prediction candidates:
// not the seed, not an existing out-neighbor.
func candidateFilter(g *bear.Graph, seed int) func(int) bool {
	return func(v int) bool { return v != seed && !g.HasEdge(seed, v) }
}
