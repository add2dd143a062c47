package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestLoadEdgeListBasic(t *testing.T) {
	in := `# a comment
0 1
1 2 0.5
% another comment

2 0 2.0
`
	g, err := LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edges missing")
	}
	_, w := g.Out(1)
	if w[0] != 0.5 {
		t.Fatalf("weight = %g, want 0.5", w[0])
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":  "0\n",
		"bad source":      "x 1\n",
		"bad target":      "1 y\n",
		"negative id":     "-1 2\n",
		"bad weight":      "0 1 w\n",
		"negative weight": "0 1 -2\n",
	}
	for name, in := range cases {
		if _, err := LoadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadEdgeListEmpty(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("# only comments\n"))
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty input gave n=%d m=%d", g.N(), g.M())
	}
}

func TestLoadSniffsFormat(t *testing.T) {
	if _, err := Load(strings.NewReader("")); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty input: err = %v, want ErrEmptyInput", err)
	}
	for in, wantN := range map[string]int{
		"%%matrixmarket matrix coordinate pattern general\n4 4 1\n1 4\n": 4,
		"0 1\n1 2\n": 3,
		"0 5":        6,
	} {
		g, err := Load(strings.NewReader(in))
		if err != nil || g.N() != wantN {
			t.Fatalf("Load(%q): n=%v err=%v, want n=%d", in, g, err, wantN)
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := randomGraph(rng, 40, 200)
	var buf bytes.Buffer
	if err := g.SaveEdgeList(&buf); err != nil {
		t.Fatalf("SaveEdgeList: %v", err)
	}
	g2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if g2.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", g2.M(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		d1, w1 := g.Out(u)
		d2, w2 := g2.Out(u)
		if len(d1) != len(d2) {
			t.Fatalf("node %d degree changed", u)
		}
		for k := range d1 {
			if d1[k] != d2[k] || w1[k] != w2[k] {
				t.Fatalf("node %d edge %d changed", u, k)
			}
		}
	}
}
