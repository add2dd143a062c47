package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"bear/internal/graph/gen"
)

// generalQuery computes a seed query through the unrestricted solver,
// bypassing the single-seed dispatch in solveToCtx. It is the reference the
// fast path must match bit-for-bit.
func generalQuery(p *Precomputed, q []float64) []float64 {
	dst := make([]float64, p.N)
	ws := p.AcquireWorkspace()
	if err := p.solveGeneralToCtx(context.Background(), dst, q, ws); err != nil {
		panic(err)
	}
	p.ReleaseWorkspace(ws)
	for i := range dst {
		dst[i] *= p.C
	}
	return dst
}

// assertBitIdentical fails unless got and want are equal under ==, i.e.
// exact floating-point equality with no tolerance.
func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d is %v, general path gives %v (Δ=%g)",
				what, i, got[i], want[i], math.Abs(got[i]-want[i]))
		}
	}
}

// seedsCoveringStructure returns one seed inside every diagonal block plus
// every hub, so the fast path is exercised on each restriction range.
func seedsCoveringStructure(p *Precomputed) []int {
	inBlock := make(map[int]int, len(p.Blocks))
	var hubs []int
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hubs = append(hubs, node)
			continue
		}
		bi := p.BlockOf(node)
		if _, ok := inBlock[bi]; !ok {
			inBlock[bi] = node
		}
	}
	seeds := make([]int, 0, len(inBlock)+len(hubs))
	for _, node := range inBlock {
		seeds = append(seeds, node)
	}
	seeds = append(seeds, hubs...)
	sort.Ints(seeds)
	return seeds
}

// TestFastPathBitIdentical is the tentpole equivalence guarantee: for
// seeds in every block and every hub, across the Laplacian and
// drop-tolerance variants, the block-restricted single-seed path must
// produce exactly the same bits as the general solver.
func TestFastPathBitIdentical(t *testing.T) {
	for name, g := range testGraphs(90) {
		variants := map[string]Options{
			"exact":      {C: 0.05, K: 4},
			"laplacian":  {C: 0.1, K: 4, Laplacian: true},
			"approx":     {C: 0.05, K: 4, DropTol: 1 / math.Sqrt(float64(g.N()))},
			"nohuborder": {C: 0.05, K: 4, NoHubOrder: true},
		}
		for vname, opts := range variants {
			t.Run(name+"/"+vname, func(t *testing.T) {
				p, err := Preprocess(g, opts)
				if err != nil {
					t.Fatalf("Preprocess: %v", err)
				}
				for _, seed := range seedsCoveringStructure(p) {
					got, err := p.Query(seed)
					if err != nil {
						t.Fatalf("Query(%d): %v", seed, err)
					}
					q := make([]float64, p.N)
					q[seed] = 1
					want := generalQuery(p, q)
					kind := fmt.Sprintf("spoke seed %d (block %d)", seed, p.BlockOf(seed))
					if p.IsHub(seed) {
						kind = fmt.Sprintf("hub seed %d", seed)
					}
					assertBitIdentical(t, got, want, kind)
				}
			})
		}
	}
}

// TestQueryDistSingleSeedDispatch: a starting distribution with one
// nonzero entry (any weight) must route through the fast path and still
// match the general solver bit-for-bit.
func TestQueryDistSingleSeedDispatch(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 18, PIntra: 0.3, Hubs: 5, HubDeg: 20, Seed: 91})
	p, err := Preprocess(g, Options{K: 4})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, p.N)
		seed := rng.Intn(p.N)
		q[seed] = 0.25 + rng.Float64()
		got, err := p.QueryDist(q)
		if err != nil {
			t.Fatalf("QueryDist: %v", err)
		}
		assertBitIdentical(t, got, generalQuery(p, q), fmt.Sprintf("dist seed %d", seed))
	}
	// Multi-seed distributions take the general path by construction; the
	// dispatch must not misfire on them.
	q := make([]float64, p.N)
	q[1], q[p.N-1] = 0.5, 0.5
	got, err := p.QueryDist(q)
	if err != nil {
		t.Fatalf("QueryDist multi: %v", err)
	}
	assertBitIdentical(t, got, generalQuery(p, q), "multi-seed dist")
}

// TestFastPathMatchesDirectSolve anchors the fast path to the
// LU-factorization oracle, not just to the general BEAR path.
func TestFastPathMatchesDirectSolve(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.35, Hubs: 4, HubDeg: 18, Seed: 93})
	p, err := Preprocess(g, Options{C: 0.05, K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	for _, seed := range seedsCoveringStructure(p) {
		got, err := p.Query(seed)
		if err != nil {
			t.Fatalf("Query(%d): %v", seed, err)
		}
		q := make([]float64, p.N)
		q[seed] = 1
		want := directSolve(t, g, p.C, q)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("seed %d: max abs diff %g vs direct solve", seed, d)
		}
	}
}

// TestQueryToZeroAllocs is the allocation regression gate: with a warmed
// workspace, the *To query paths must not touch the heap at all.
func TestQueryToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are only meaningful without -race")
	}
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 10, Size: 20, PIntra: 0.3, Hubs: 5, HubDeg: 25, Seed: 94})
	p, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ws := p.AcquireWorkspace()
	defer p.ReleaseWorkspace(ws)
	dst := make([]float64, p.N)
	q := make([]float64, p.N)
	q[3], q[70], q[140] = 0.2, 0.5, 0.3
	hub := -1
	for node := 0; node < p.N; node++ {
		if p.IsHub(node) {
			hub = node
			break
		}
	}
	var qerr error
	cases := []struct {
		name string
		fn   func()
	}{
		{"QueryTo/spoke", func() { qerr = p.QueryTo(dst, 1, ws) }},
		{"QueryTo/hub", func() { qerr = p.QueryTo(dst, hub, ws) }},
		{"QueryDistTo/general", func() { qerr = p.QueryDistTo(dst, q, ws) }},
	}
	for _, c := range cases {
		if hub < 0 && c.name == "QueryTo/hub" {
			continue
		}
		c.fn() // warm any lazy state before measuring
		if allocs := testing.AllocsPerRun(50, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
		if qerr != nil {
			t.Fatalf("%s: %v", c.name, qerr)
		}
	}
	// The allocating wrappers should spend their allocations on the result
	// alone, not on solver scratch.
	if allocs := testing.AllocsPerRun(50, func() { _, qerr = p.Query(1) }); allocs > 1 {
		t.Errorf("Query: %v allocs/op, want ≤ 1 (result only)", allocs)
	}
}

// TestWorkspaceReleaseMismatch: releasing a foreign workspace must panic
// loudly rather than poison the pool with wrongly-sized buffers.
func TestWorkspaceReleaseMismatch(t *testing.T) {
	g1 := gen.ErdosRenyi(30, 90, 95)
	g2 := gen.ErdosRenyi(50, 150, 96)
	p1, err := Preprocess(g1, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	p2, err := Preprocess(g2, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic releasing a foreign workspace")
		}
	}()
	p2.ReleaseWorkspace(p1.AcquireWorkspace())
}

// TestConcurrentBatchAndQueryToRace hammers the shared workspace pool from
// QueryBatch and explicit per-goroutine workspaces at once; run with -race
// this is the data-race gate for the pooled query engine.
func TestConcurrentBatchAndQueryToRace(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.3, Hubs: 4, HubDeg: 15, Seed: 97})
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	want, err := p.Query(2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	seeds := make([]int, 24)
	for i := range seeds {
		seeds[i] = (i * 11) % p.N
	}
	// Two chunks of seeds fan out to two goroutines whatever the host's
	// CPU count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				for rep := 0; rep < 5; rep++ {
					if _, err := p.QueryBatch(seeds); err != nil {
						errs <- err
						return
					}
				}
				return
			}
			ws := p.AcquireWorkspace()
			defer p.ReleaseWorkspace(ws)
			dst := make([]float64, p.N)
			for rep := 0; rep < 40; rep++ {
				if err := p.QueryTo(dst, 2, ws); err != nil {
					errs <- err
					return
				}
				if maxAbsDiff(dst, want) != 0 {
					errs <- errNondeterministic
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBlockOfBinarySearch cross-checks the binary-search BlockOf against a
// linear walk over the block sizes.
func TestBlockOfBinarySearch(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 12, Size: 10, PIntra: 0.4, Hubs: 4, HubDeg: 12, Seed: 98})
	p, err := Preprocess(g, Options{K: 3})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	linear := func(pos int) int {
		off := 0
		for i, sz := range p.Blocks {
			off += sz
			if pos < off {
				return i
			}
		}
		return -1
	}
	for node := 0; node < p.N; node++ {
		want := -1
		if pos := p.Perm[node]; pos < p.N1 {
			want = linear(pos)
		}
		if got := p.BlockOf(node); got != want {
			t.Fatalf("BlockOf(%d) = %d, want %d", node, got, want)
		}
	}
	if len(p.BlockOffsets) != len(p.Blocks)+1 || p.BlockOffsets[len(p.Blocks)] != p.N1 {
		t.Fatalf("BlockOffsets %v inconsistent with Blocks %v (n1=%d)", p.BlockOffsets, p.Blocks, p.N1)
	}
}

// TestTopKMatchesSelectionSort checks the bounded-heap TopK against the
// O(n·k) selection reference it replaced, including heavy ties.
func TestTopKMatchesSelectionSort(t *testing.T) {
	reference := func(scores []float64, k int) []int {
		if k > len(scores) {
			k = len(scores)
		}
		if k < 0 {
			k = 0
		}
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			x, y := idx[a], idx[b]
			return scores[x] > scores[y] || (scores[x] == scores[y] && x < y)
		})
		return idx[:k]
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse quantization forces many exact ties.
			scores[i] = float64(rng.Intn(8)) / 7
		}
		k := rng.Intn(n + 10)
		got := TopK(scores, k)
		want := reference(scores, k)
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: got %d ids, want %d", n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d k=%d: position %d is %d, want %d", n, k, i, got[i], want[i])
			}
		}
	}
	if got := TopK([]float64{1, 2}, 0); len(got) != 0 {
		t.Fatalf("TopK k=0 returned %v", got)
	}
	if got := TopK(nil, 5); len(got) != 0 {
		t.Fatalf("TopK on empty scores returned %v", got)
	}
}
