package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bear/internal/graph/gen"
	"bear/internal/ordering"
)

// legacyFixtures returns the committed files in testdata/legacy whose
// names match pattern; see testdata/legacy/README.md for their origin.
func legacyFixtures(tb testing.TB, pattern string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "legacy", pattern))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no legacy fixtures match %q: %v", pattern, err)
	}
	var files [][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// TestLoadLegacyFixtures loads one file of every format version ever
// written and requires queries bit-identical to the same graph and
// options preprocessed fresh. The dynamic states marked pending hold the
// update AddEdge(0, 39, 2) as a Woodbury correction, so the fresh copy
// applies it too.
func TestLoadLegacyFixtures(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 41)
	for _, c := range []struct {
		file    string
		opts    Options
		pending bool
	}{
		{"pc01.bear", Options{K: 1}, false},
		{"pc02.bear", Options{K: 1}, false},
		{"pc03.bear", Options{K: 1, KeepH: true}, false},
		{"dy01.bear", Options{K: 1}, false},
		{"dy02.bear", Options{K: 1, KeepH: true}, true},
		{"dy03.bear", Options{K: 1, Ordering: "mindeg"}, true},
	} {
		t.Run(c.file, func(t *testing.T) {
			data := legacyFixtures(t, c.file)[0]
			if want := "BEAR" + strings.ToUpper(c.file[:4]); string(data[:8]) != want {
				t.Fatalf("fixture magic %q, want %q", data[:8], want)
			}
			var got, want func(int) ([]float64, error)
			if strings.HasPrefix(c.file, "pc") {
				p, err := Load(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				if (p.H != nil) != c.opts.KeepH {
					t.Fatalf("loaded H present = %v, want %v", p.H != nil, c.opts.KeepH)
				}
				fresh, err := Preprocess(g, c.opts)
				if err != nil {
					t.Fatalf("Preprocess: %v", err)
				}
				got, want = p.Query, fresh.Query
			} else {
				d, err := LoadDynamic(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("LoadDynamic: %v", err)
				}
				fresh, err := NewDynamic(g, c.opts)
				if err != nil {
					t.Fatalf("NewDynamic: %v", err)
				}
				if c.pending {
					if err := fresh.AddEdge(0, 39, 2); err != nil {
						t.Fatalf("AddEdge: %v", err)
					}
				}
				o := d.Options()
				if o.KeepH != c.opts.KeepH || o.Ordering != ordering.Normalize(c.opts.Ordering) {
					t.Fatalf("restored KeepH=%v Ordering=%q, want %v %q",
						o.KeepH, o.Ordering, c.opts.KeepH, ordering.Normalize(c.opts.Ordering))
				}
				if d.PendingNodes() != fresh.PendingNodes() {
					t.Fatalf("restored %d pending nodes, want %d", d.PendingNodes(), fresh.PendingNodes())
				}
				got, want = d.Query, fresh.Query
			}
			for seed := 0; seed < g.N(); seed++ {
				a, err := got(seed)
				if err != nil {
					t.Fatalf("query(%d) on loaded file: %v", seed, err)
				}
				b, err := want(seed)
				if err != nil {
					t.Fatalf("query(%d) on fresh copy: %v", seed, err)
				}
				if diff := maxAbsDiff(a, b); diff != 0 {
					t.Fatalf("seed %d: loaded file differs from fresh preprocess by %g", seed, diff)
				}
			}
		})
	}
}
