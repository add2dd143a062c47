package core

import (
	"context"
	"fmt"
	"sort"

	"bear/internal/graph"
)

// Fallback reasons recorded in TopKStats.Fallback when a top-k query ran
// the full exact solve instead of the block-pruned one.
const (
	// TopKFallbackApprox: the index drops factor entries (DropTol > 0).
	// The block-pruned path promises scores bit-identical to the exact
	// solve, so it runs only on exact indexes.
	TopKFallbackApprox = "approx_index"
	// TopKFallbackLaplacian: the index uses the Laplacian normalization.
	// The block-pruned path is kept to the row-normalized system.
	TopKFallbackLaplacian = "laplacian"
	// TopKFallbackPending: pending dynamic updates need the Woodbury
	// correction, which only the full query path applies.
	TopKFallbackPending = "pending_updates"
	// TopKFallbackAllNodes: k covers every node, so there is no rank k+1 to
	// separate from and no block can be skipped.
	TopKFallbackAllNodes = "k_covers_graph"
)

// TopKStats reports how a top-k query was answered.
type TopKStats struct {
	// Pruned is always false: every answer comes from an exact solve.
	// The field stays for source compatibility and is removed with the
	// next benchmark change.
	Pruned bool
	// Fallback names why the full exact solve ran; empty when the
	// block-pruned solve answered.
	Fallback string
	// BlocksSolved and BlocksSkipped count spoke blocks whose back
	// substitution ran or was certifiably skipped by the block-pruned
	// solve (both zero when the full solve ran).
	BlocksSolved  int
	BlocksSkipped int
}

// TopKResult is the answer to a top-k query.
type TopKResult struct {
	// Nodes holds the top-k node ids in the order TopK(exact scores, k)
	// gives them.
	Nodes []int
	// Scores holds the exact score of each node in Nodes.
	Scores []float64
	Stats  TopKStats
}

// QueryTopK is QueryTopKCtx with a background context.
func (d *Dynamic) QueryTopK(seed, k int) (*TopKResult, error) {
	return d.QueryTopKCtx(context.Background(), seed, k)
}

// QueryTopKCtx returns the k nodes with the highest exact RWR scores for
// seed on the current graph, without back-substituting spoke blocks that
// cannot reach rank k. It runs the block-pruned exact solve: hub and
// seed-block scores are computed exactly, every other spoke block gets a
// certified upper bound on its best attainable score, and only blocks
// whose bound can still reach rank k are back-substituted (Lemma 1's
// block restriction, driven by the bound instead of structural zeros).
// Nodes, order and scores are bit-identical to TopK over the full exact
// solve. Ineligible configurations (approximate index, Laplacian
// normalization, pending updates, k covering the whole graph) run the full
// solve instead, with the reason in Stats.Fallback.
//
// Like the other query methods, the result reflects the graph state as of
// when the query began.
func (d *Dynamic) QueryTopKCtx(ctx context.Context, seed, k int) (*TopKResult, error) {
	d.mu.RLock()
	p := d.p
	n := p.N
	opts := d.opts
	pending := len(d.dirty) > 0
	d.mu.RUnlock()
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("core: seed %d out of range [0,%d)", seed, n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k size %d must be positive", k)
	}

	var st TopKStats
	switch {
	case opts.Laplacian:
		st.Fallback = TopKFallbackLaplacian
	case opts.DropTol > 0:
		st.Fallback = TopKFallbackApprox
	case pending:
		st.Fallback = TopKFallbackPending
	case k >= n:
		st.Fallback = TopKFallbackAllNodes
	}
	if st.Fallback == "" {
		// The index snapshot captured at entry had no pending updates, so
		// p factors exactly the graph this query promises to reflect.
		ws := p.AcquireWorkspace()
		nodes, scores, solved, skipped, err := p.solveSeedTopKCtx(ctx, seed, k, ws)
		p.ReleaseWorkspace(ws)
		if err != nil {
			return nil, err
		}
		st.BlocksSolved, st.BlocksSkipped = solved, skipped
		return &TopKResult{Nodes: nodes, Scores: scores, Stats: st}, nil
	}

	scores, err := d.QueryCtx(ctx, seed)
	if err != nil {
		return nil, err
	}
	nodes := TopK(scores, k)
	top := make([]float64, len(nodes))
	for i, v := range nodes {
		top[i] = scores[v]
	}
	return &TopKResult{Nodes: nodes, Scores: top, Stats: st}, nil
}

// TopKExcluding is TopK restricted to nodes for which skip returns false.
// Ranking semantics (descending score, ties by ascending id, NaN last) are
// identical to TopK; the result is shorter than k when fewer than k nodes
// survive the filter. A nil skip is TopK.
func TopKExcluding(scores []float64, k int, skip func(int) bool) []int {
	return topKFiltered(scores, k, skip)
}

// TopKCandidates ranks link-prediction candidates for seed: the top-k
// scored nodes excluding the seed itself and every node it already points
// at. This is the standard RWR candidate-selection step — recommending an
// existing neighbor is vacuous, so only new links are ranked.
func TopKCandidates(g *graph.Graph, scores []float64, seed, k int) []int {
	out, _ := g.Out(seed)
	return topKFiltered(scores, k, func(v int) bool {
		if v == seed {
			return true
		}
		i := sort.SearchInts(out, v)
		return i < len(out) && out[i] == v
	})
}
