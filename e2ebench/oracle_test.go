package main

import (
	"math/rand"
	"strings"
	"testing"

	"bear"
)

func ref(scores ...float64) *reference { return newReference(scores) }

func TestCheckTopKAcceptsExactAndTies(t *testing.T) {
	r := ref(0.5, 0.2, 0.2, 0.1, 0.05)
	if err := checkTopK([]scored{{0, 0.5}, {1, 0.2}}, r, 2, nil, 0, false); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	// Node 2 ties node 1: either completes a valid top 2.
	if err := checkTopK([]scored{{0, 0.5}, {2, 0.2}}, r, 2, nil, 0, false); err != nil {
		t.Errorf("tied answer rejected: %v", err)
	}
	// Within tolerance of the oracle is fine.
	if err := checkTopK([]scored{{0, 0.5 + scoreTol/2}}, r, 1, nil, 0, false); err != nil {
		t.Errorf("answer within tolerance rejected: %v", err)
	}
}

func TestCheckTopKRejectsWrongAnswers(t *testing.T) {
	r := ref(0.5, 0.2, 0.1, 0.05)
	cases := map[string]struct {
		got  []scored
		k    int
		want string
	}{
		"missing node":  {[]scored{{0, 0.5}, {2, 0.1}}, 2, "missing"},
		"bad score":     {[]scored{{0, 0.5}, {1, 0.2 + 1e-6}}, 2, "oracle"},
		"too short":     {[]scored{{0, 0.5}}, 2, "returned 1"},
		"duplicate":     {[]scored{{0, 0.5}, {0, 0.5}}, 2, "twice"},
		"out of range":  {[]scored{{0, 0.5}, {9, 0}}, 2, "out of range"},
		"too long at k": {[]scored{{0, 0.5}, {1, 0.2}, {2, 0.1}}, 2, "returned 3"},
	}
	for name, c := range cases {
		err := checkTopK(c.got, r, c.k, nil, 0, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, c.want)
		}
	}
}

func TestCheckTopKLowerBounds(t *testing.T) {
	r := ref(0.5, 0.2, 0.1)
	// A push-certified answer may under-report scores, never over-report.
	if err := checkTopK([]scored{{0, 0.45}, {1, 0.19}}, r, 2, nil, 0, true); err != nil {
		t.Errorf("valid lower bounds rejected: %v", err)
	}
	if err := checkTopK([]scored{{0, 0.6}, {1, 0.2}}, r, 2, nil, 0, true); err == nil {
		t.Errorf("a bound above the oracle was accepted")
	}
}

func TestCheckTopKEligibility(t *testing.T) {
	r := ref(0.5, 0.3, 0.2, 0.1)
	notZero := func(v int) bool { return v != 0 }
	if err := checkTopK([]scored{{1, 0.3}, {2, 0.2}}, r, 2, notZero, 1, false); err != nil {
		t.Errorf("eligible answer rejected: %v", err)
	}
	if err := checkTopK([]scored{{0, 0.5}, {1, 0.3}}, r, 2, notZero, 1, false); err == nil {
		t.Errorf("an ineligible node was accepted")
	}
	// k beyond the eligible count: the answer holds every eligible node.
	if err := checkTopK([]scored{{1, 0.3}, {2, 0.2}, {3, 0.1}}, r, 10, notZero, 1, false); err != nil {
		t.Errorf("full eligible set rejected: %v", err)
	}
}

func TestCheckVector(t *testing.T) {
	if err := checkVector([]float64{1, 2}, []float64{1, 2 + scoreTol/2}); err != nil {
		t.Errorf("vector within tolerance rejected: %v", err)
	}
	if err := checkVector([]float64{1, 2}, []float64{1, 2.001}); err == nil {
		t.Errorf("wrong vector accepted")
	}
	if err := checkVector([]float64{1}, []float64{1, 2}); err == nil {
		t.Errorf("short vector accepted")
	}
}

// The power-method oracle and BEAR agree on a small graph, and a
// deliberately perturbed answer is caught.
func TestOracleAgreesWithBEAR(t *testing.T) {
	g := bear.GenerateBarabasiAlbert(300, 2, 7)
	o, err := newOracle(g, []int{0, 17, 123})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := bear.NewDynamic(g, bear.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed, r := range o.vecs {
		got, err := dyn.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkVector(got, r.scores); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		res, err := dyn.QueryTopK(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		var top []scored
		for i, n := range res.Nodes {
			top = append(top, scored{n, res.Scores[i]})
		}
		if err := checkTopK(top, r, 10, nil, 0, res.Stats.Pruned); err != nil {
			t.Errorf("seed %d top-k: %v", seed, err)
		}
		top[len(top)-1].Node = r.ranked[len(r.ranked)-1] // swap in the weakest node
		if err := checkTopK(top, r, 10, nil, 0, false); err == nil {
			t.Errorf("seed %d: a wrong top-k set was accepted", seed)
		}
	}
}

func TestCandidateFilter(t *testing.T) {
	g := bear.GenerateBarabasiAlbert(50, 2, 1)
	seed := 3
	ok := candidateFilter(g, seed)
	if ok(seed) {
		t.Errorf("the seed itself is a candidate")
	}
	dst, _ := g.Out(seed)
	for _, v := range dst {
		if ok(v) {
			t.Errorf("out-neighbor %d is a candidate", v)
		}
	}
	excluded := 0
	for v := 0; v < g.N(); v++ {
		if !ok(v) {
			excluded++
		}
	}
	if excluded != 1+g.OutDegree(seed) {
		t.Errorf("excluded %d nodes, want %d", excluded, 1+g.OutDegree(seed))
	}
}

// The write planner never writes a pair twice and never strands a node
// without out-edges, so writes commute and the copy stays a valid graph.
func TestWritePlannerCommutes(t *testing.T) {
	g := bear.GenerateBarabasiAlbert(200, 2, 3)
	p := newWritePlanner(rand.New(rand.NewSource(1)), newEdgeSet(g))
	seen := map[[2]int]bool{}
	final := newEdgeSet(g)
	for i := 0; i < 2000; i++ {
		w := p.next()
		if w == nil {
			t.Fatal("planner ran dry")
		}
		key := [2]int{w.U, w.V}
		if seen[key] {
			t.Fatalf("pair %v written twice", key)
		}
		seen[key] = true
		if w.Op == "remove" {
			if _, ok := final.out[w.U][w.V]; !ok {
				t.Fatalf("remove of missing edge %v", key)
			}
			delete(final.out[w.U], w.V)
		} else {
			if _, ok := final.out[w.U][w.V]; ok {
				t.Fatalf("add of existing edge %v", key)
			}
			final.out[w.U][w.V] = w.W
		}
	}
	for u, row := range final.out {
		if g.OutDegree(u) > 0 && len(row) == 0 {
			t.Fatalf("node %d lost all its out-edges", u)
		}
	}
	if got, want := final.graph().M(), p.planned.graph().M(); got != want {
		t.Fatalf("planned state %d edges, replayed %d", want, got)
	}
}
