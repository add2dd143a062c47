package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bear/internal/graph"
	"bear/internal/graph/gen"
)

// topKFixtures is the 12-graph suite the top-k contract is checked on: the
// shared core fixtures plus four shapes that stress block pruning
// differently — a path (long diameter), a bipartite graph (score
// oscillation), a clique (maximal ties), and a star-mail graph whose hub
// seeds carry a structural score gap.
func topKFixtures(seed int64) map[string]*graph.Graph {
	m := testGraphs(seed)
	m["path"] = pathGraph(150)
	m["bipartite"] = gen.Bipartite(40, 60, 300, seed+7)
	m["clique"] = cliqueGraph(25)
	m["starmail"] = gen.StarMail(gen.StarMailConfig{Core: 12, Periphery: 250, LeafDeg: 2, PCore: 0.4, Seed: 47})
	return m
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

func cliqueGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(i, j, 1)
			}
		}
	}
	return b.Build()
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func sameSet(t *testing.T, got, want []int, label string) {
	t.Helper()
	g, w := sortedCopy(got), sortedCopy(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d nodes, want %d\ngot  %v\nwant %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: sets differ\ngot  %v\nwant %v", label, g, w)
		}
	}
}

// TestHybridTopKMatchesExact is the central contract: on every fixture and
// every k, QueryTopKCtx returns exactly the nodes, order and bit-identical
// scores TopK picks from the full exact solve.
func TestHybridTopKMatchesExact(t *testing.T) {
	fixtures := topKFixtures(42)
	if len(fixtures) != 12 {
		t.Fatalf("fixture suite has %d graphs, want 12", len(fixtures))
	}
	skipped := 0
	for name, g := range fixtures {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatalf("%s: preprocess: %v", name, err)
		}
		n := g.N()
		seeds := []int{0, n / 2, n - 1}
		for _, seed := range seeds {
			exact, err := d.Query(seed)
			if err != nil {
				t.Fatalf("%s seed %d: exact query: %v", name, seed, err)
			}
			for _, k := range []int{1, 10, 100} {
				want := TopK(exact, k)
				res, err := d.QueryTopK(seed, k)
				if err != nil {
					t.Fatalf("%s seed %d k %d: hybrid: %v", name, seed, k, err)
				}
				label := name + " hybrid-vs-exact"
				sameSet(t, res.Nodes, want, label)
				if res.Stats.Fallback == "" {
					// A hub seed may legitimately solve zero spoke blocks
					// (the whole top-k can live among the exactly-solved
					// hubs), so the accounting check is solved+skipped.
					if res.Stats.BlocksSolved+res.Stats.BlocksSkipped == 0 {
						t.Fatalf("%s: block-pruned result reports no block accounting: %+v", label, res.Stats)
					}
					if res.Stats.BlocksSkipped > 0 {
						skipped++
					}
				}
				// Order and scores must match TopK exactly — both for
				// full-solve fallbacks and for the block-pruned solve,
				// whose computed entries are bit-identical.
				for i, v := range res.Nodes {
					if v != want[i] || res.Scores[i] != exact[v] {
						t.Fatalf("%s: order/scores diverge at %d: node %d score %g, want node %d score %g",
							label, i, v, res.Scores[i], want[i], exact[want[i]])
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no fixture/seed/k combination skipped any block; the block-pruned path never pruned")
	}
	t.Logf("%d of %d queries skipped at least one block", skipped, len(fixtures)*3*3)
}

// TestHybridTopKBlockPruning checks the block-pruned exact path on a
// block-rich graph: the solve must skip a nontrivial number of spoke blocks while still returning the exact set,
// order, and bit-identical scores.
func TestHybridTopKBlockPruning(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{
		Communities: 40, Size: 30, PIntra: 0.4, Hubs: 4, HubDeg: 25, Seed: 5,
	})
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawSkip := false
	for _, seed := range []int{10, 400, 900} {
		exact, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != "" {
			t.Fatalf("seed %d: unexpected fallback %q", seed, res.Stats.Fallback)
		}
		if res.Stats.BlocksSolved == 0 {
			t.Fatalf("seed %d: block path reports no solved blocks: %+v", seed, res.Stats)
		}
		if res.Stats.BlocksSkipped > 0 {
			sawSkip = true
		}
		want := TopK(exact, 10)
		for i, v := range res.Nodes {
			if v != want[i] || res.Scores[i] != exact[v] {
				t.Fatalf("seed %d: diverges at %d: node %d score %g, want node %d score %g",
					seed, i, v, res.Scores[i], want[i], exact[want[i]])
			}
		}
	}
	if !sawSkip {
		t.Fatal("no seed skipped any block on a 40-community graph; the bound never pruned")
	}
}

func TestHybridTopKFallbackReasons(t *testing.T) {
	g := gen.ErdosRenyi(80, 400, 9)
	check := func(t *testing.T, d *Dynamic, wantReason string, k int) {
		t.Helper()
		exact, err := d.Query(5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.QueryTopK(5, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Fallback != wantReason {
			t.Fatalf("stats %+v, want fallback %q", res.Stats, wantReason)
		}
		sameSet(t, res.Nodes, TopK(exact, k), "fallback "+wantReason)
	}
	t.Run("approx", func(t *testing.T) {
		d, err := NewDynamic(g, Options{DropTol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackApprox, 10)
	})
	t.Run("laplacian", func(t *testing.T) {
		d, err := NewDynamic(g, Options{Laplacian: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackLaplacian, 10)
	})
	t.Run("pending", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddEdge(0, 79, 2.5); err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackPending, 10)
	})
	t.Run("k-covers-graph", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, TopKFallbackAllNodes, g.N()+5)
	})
	t.Run("bad-args", func(t *testing.T) {
		d, err := NewDynamic(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.QueryTopK(-1, 5); err == nil {
			t.Error("negative seed accepted")
		}
		if _, err := d.QueryTopK(g.N(), 5); err == nil {
			t.Error("out-of-range seed accepted")
		}
		if _, err := d.QueryTopK(0, 0); err == nil {
			t.Error("k=0 accepted")
		}
	})
}

// TestHybridTopKConcurrent interleaves top-k queries with edge updates
// under the race detector.
func TestHybridTopKConcurrent(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 31)
	d, err := NewDynamic(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 25; i++ {
				res, err := d.QueryTopK(rng.Intn(200), 5)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(res.Nodes) != 5 {
					t.Errorf("worker %d: got %d nodes", w, len(res.Nodes))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := d.AddEdge(i, (i*7+1)%200, float64(i+1)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// brute-force reference ranking sharing TopK's comparator, for parity
// checks on NaN scores and ties.
func bruteTopK(scores []float64, k int, skip func(int) bool) []int {
	var idx []int
	for i := range scores {
		if skip != nil && skip(i) {
			continue
		}
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		sa, sb := scores[a], scores[b]
		if math.IsNaN(sa) {
			return math.IsNaN(sb) && a < b
		}
		if math.IsNaN(sb) {
			return true
		}
		return sa > sb || (sa == sb && a < b)
	})
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}

func TestTopKExcludingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			switch rng.Intn(5) {
			case 0:
				scores[i] = math.NaN()
			case 1:
				scores[i] = float64(rng.Intn(3)) // force ties
			default:
				scores[i] = rng.Float64()
			}
		}
		var skip func(int) bool
		if trial%2 == 1 {
			skip = func(i int) bool { return i%3 == 0 }
		}
		for _, k := range []int{0, 1, 3, n, n + 10} {
			got := TopKExcluding(scores, k, skip)
			want := bruteTopK(scores, k, skip)
			if len(got) != len(want) {
				t.Fatalf("trial %d k %d: len %d, want %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k %d: order diverges at %d: got %v want %v", trial, k, i, got, want)
				}
			}
		}
		// nil skip must be bit-identical to TopK.
		a, b := TopKExcluding(scores, 7, nil), TopK(scores, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: TopKExcluding(nil) diverges from TopK: %v vs %v", trial, a, b)
			}
		}
	}
}

func TestTopKCandidatesExcludesExistingEdges(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 4, 1)
	g := b.Build()
	scores := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4}
	got := TopKCandidates(g, scores, 0, 10)
	// Seed 0 and its out-neighbors 1, 2 are excluded; the rest rank by score.
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// A node with no out-edges excludes only itself.
	got = TopKCandidates(g, scores, 5, 2)
	want = []int{0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("isolated seed: got %v, want %v", got, want)
		}
	}
}
