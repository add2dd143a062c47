package core

import (
	"bytes"
	"testing"

	"bear/internal/graph/gen"
)

// FuzzLoad checks the binary index decoder never panics or over-allocates
// on corrupt input, and accepts byte-flipped variants of a valid file only
// if they still decode to a self-consistent index.
func FuzzLoad(f *testing.F) {
	g := gen.ErdosRenyi(40, 160, 1)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:16])
	f.Add([]byte("BEARPC01 garbage"))
	f.Add([]byte{})
	// A few corrupted variants as seeds.
	for _, at := range []int{8, 40, len(valid) / 2, len(valid) - 9} {
		c := append([]byte(nil), valid...)
		c[at] ^= 0xff
		f.Add(c)
	}
	for _, legacy := range legacyFixtures(f, "pc*.bear") {
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must be internally consistent enough to query.
		if p.N > 0 {
			if _, err := p.Query(0); err != nil {
				t.Logf("query on decoded index failed: %v", err) // allowed
			}
		}
	})
}

// FuzzLoadDynamic checks the dynamic-state decoder never panics on corrupt
// input; with the CRC footer, anything mutated should be rejected and
// anything accepted must be immediately queryable.
func FuzzLoadDynamic(f *testing.F) {
	g := gen.ErdosRenyi(30, 120, 2)
	d, err := NewDynamic(g, Options{K: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.AddEdge(0, 29, 1); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:24])
	f.Add([]byte("BEARDY01 garbage"))
	f.Add([]byte{})
	for _, at := range []int{8, 40, len(valid) / 2, len(valid) - 5} {
		c := append([]byte(nil), valid...)
		c[at] ^= 0xff
		f.Add(c)
	}
	for _, legacy := range legacyFixtures(f, "dy*.bear") {
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := LoadDynamic(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := d.Query(0); err != nil {
			t.Fatalf("restored dynamic state cannot answer queries: %v", err)
		}
	})
}
