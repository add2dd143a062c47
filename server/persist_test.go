package server

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bear"
)

// withBlobLen returns a copy of snap whose first graph claims a blob of n
// bytes. The field follows the magic, graph count, name length, name and
// creation time.
func withBlobLen(snap []byte, n uint64) []byte {
	c := append([]byte(nil), snap...)
	off := 24 + binary.LittleEndian.Uint64(c[16:24]) + 8
	binary.LittleEndian.PutUint64(c[off:], n)
	return c
}

// TestSnapshotLyingBlobLength: a blob-length header far beyond the file
// must fail the restore with an error. Allocating the claimed size up
// front instead kills the process with an out-of-memory error no caller
// can recover from.
func TestSnapshotLyingBlobLength(t *testing.T) {
	s := New()
	g, err := bear.LoadGraph(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("g", g, bear.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New()
	err = fresh.ReadSnapshot(bytes.NewReader(withBlobLen(buf.Bytes(), 1<<33)))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("snapshot claiming an 8 GiB blob: err = %v, want a truncation error", err)
	}
	if len(fresh.graphs) != 0 {
		t.Fatal("failed restore left graphs registered")
	}
}

// TestReadLegacySnapshot restores a registry snapshot written before the
// dynamic-state writer settled on one format version (see
// testdata/README.md) and requires queries bit-identical to the same
// graphs preprocessed fresh: graph "g" embeds a BEARDY02 blob holding the
// update AddEdge(0, 39, 2) pending, graph "m" a BEARDY03 blob under mindeg.
func TestReadLegacySnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sv01.snap"))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.ReadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	g := bear.GenerateErdosRenyi(40, 160, 41)
	for name, opts := range map[string]bear.Options{
		"g": {K: 1, KeepH: true},
		"m": {K: 1, KeepH: true, Ordering: "mindeg"},
	} {
		e, ok := s.lookup(name)
		if !ok {
			t.Fatalf("graph %q not restored", name)
		}
		if got, want := e.opts.Ordering, bear.NormalizeOrdering(opts.Ordering); got != want {
			t.Fatalf("graph %q restored with ordering %q, want %q", name, got, want)
		}
		fresh, err := bear.NewDynamic(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if name == "g" {
			if err := fresh.AddEdge(0, 39, 2); err != nil {
				t.Fatal(err)
			}
		}
		for seed := 0; seed < g.N(); seed++ {
			a, err := e.dyn.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("graph %q seed %d: restored score[%d] = %v, fresh %v", name, seed, i, a[i], b[i])
				}
			}
		}
	}
}
