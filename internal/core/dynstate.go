package core

import (
	"fmt"
	"io"
	"math"

	"bear/internal/frame"
	"bear/internal/graph"
	"bear/internal/ordering"
)

// Dynamic-state files are frame kind "DY": preprocessing options, base
// graph, precomputed matrices, and — if updates are pending — the current
// graph and dirty set. Version 3 is the only one written; it stores the
// KeepH flag, a flag marking the payload's H section (always set when
// written) and the ordering engine's name, so a restored Dynamic rebuilds
// with the same engine. Older files still load: version 1 has none of the
// three fields and no H section, version 2 adds KeepH and the H section,
// and both restore as slashburn, which produced every index they hold.
const dyKind, dyVersion = "DY", 3

// SaveState serializes the full dynamic-serving state: a restored Dynamic
// answers every query bit-identically to this one, including the exact
// Woodbury corrections for pending updates. The state captured is the last
// committed one; an in-flight background Rebuild is not waited for.
func (d *Dynamic) SaveState(w io.Writer) error {
	// The write lock (rather than RLock) lets the pending-update overlay be
	// materialized into the current graph if no materialization is cached;
	// the lock is held only for that O(N+M) pass, not for the I/O below
	// (every captured component is immutable once read).
	d.mu.Lock()
	base, p, opts := d.base, d.p, d.opts
	dirty := append([]int(nil), d.dirty...)
	cur := d.materializeLocked()
	d.mu.Unlock()

	e := encoder{frame.NewWriter(w, dyKind, dyVersion)}
	e.f64(opts.C)
	e.f64(opts.DropTol)
	e.f64(opts.HubRatio)
	e.i64(int64(opts.K))
	// Retired DenseSchurCutoff and Workers slots, kept so the byte layout
	// stays BEARDY03.
	e.i64(0)
	e.i64(0)
	e.bool(opts.Laplacian)
	e.bool(opts.NoHubOrder)
	e.bool(opts.KeepH)
	e.bool(true) // the payload carries the H section
	e.str(ordering.Normalize(opts.Ordering))
	encodeGraph(e, base)
	p.encodePayload(e)
	e.ints(dirty)
	if len(dirty) == 0 {
		e.bool(false) // cur == base; don't store the graph twice
	} else {
		e.bool(true)
		encodeGraph(e, cur)
	}
	if err := e.Close(); err != nil {
		return fmt.Errorf("core: saving dynamic state: %w", err)
	}
	return nil
}

// LoadDynamic reads state previously written by SaveState, verifying the
// integrity footer. On any error — bad magic, truncation, CRC mismatch,
// or inconsistent contents — it returns nil and the error; it never
// returns a partially populated Dynamic.
func LoadDynamic(r io.Reader) (*Dynamic, error) {
	fr := frame.NewReader(r)
	v, err := fr.Version(dyKind, dyVersion)
	if err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", err)
	}
	d := &decoder{r: fr}
	var opts Options
	opts.C = d.f64()
	opts.DropTol = d.f64()
	opts.HubRatio = d.f64()
	opts.K = int(d.i64())
	d.i64() // retired DenseSchurCutoff slot
	d.i64() // retired Workers slot
	opts.Laplacian = d.bool()
	opts.NoHubOrder = d.bool()
	withH := v >= 2
	opts.Ordering = ordering.Default
	if v >= 2 {
		opts.KeepH = d.bool()
	}
	if v >= 3 {
		withH = d.bool()
		opts.Ordering = d.str()
		if d.err == nil {
			if _, err := ordering.Get(opts.Ordering); err != nil {
				// An unknown engine means a rebuild could not reproduce the
				// partition the stored factors depend on — refuse the file
				// explicitly rather than silently reordering differently.
				return nil, fmt.Errorf("core: loading dynamic state: %w", err)
			}
		}
	}
	base := decodeGraph(d)
	if d.err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", d.err)
	}
	p, err := decodePayload(d, withH)
	if err != nil {
		return nil, err
	}
	dirty := d.ints()
	cur := base
	if d.bool() {
		cur = decodeGraph(d)
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", d.err)
	}
	if err := fr.CheckFooter(); err != nil {
		return nil, fmt.Errorf("core: loading dynamic state: %w", err)
	}
	return RestoreDynamic(base, cur, p, dirty, opts)
}

// RestoreDynamic reassembles a Dynamic from its components: the base graph
// the precomputed matrices reflect, the current graph with all accepted
// updates applied, and the sorted dirty-node set. It validates the pieces
// against each other so a Dynamic can only be built from a consistent
// state.
func RestoreDynamic(base, cur *graph.Graph, p *Precomputed, dirty []int, opts Options) (*Dynamic, error) {
	if base == nil || cur == nil || p == nil {
		return nil, fmt.Errorf("core: restore from nil component")
	}
	if _, err := ordering.Get(opts.Ordering); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if base.N() != p.N || cur.N() != p.N {
		return nil, fmt.Errorf("core: restore size mismatch: base n=%d cur n=%d precomputed n=%d",
			base.N(), cur.N(), p.N)
	}
	for i, u := range dirty {
		if u < 0 || u >= p.N {
			return nil, fmt.Errorf("core: restore dirty node %d out of range [0,%d)", u, p.N)
		}
		if i > 0 && dirty[i-1] >= u {
			return nil, fmt.Errorf("core: restore dirty set not sorted and unique at index %d", i)
		}
	}
	if len(dirty) == 0 && cur != base && cur.M() != base.M() {
		return nil, fmt.Errorf("core: restore has no dirty nodes but base and current graphs differ")
	}
	// Rebuild the row overlay from the dirty set: exactly the dirty rows
	// may differ from base, so the overlay holds their cur rows (aliasing
	// cur's immutable storage; rows are never mutated in place) and cur
	// itself seeds the materialization cache.
	var overlay map[int]nodeRow
	if len(dirty) > 0 {
		overlay = make(map[int]nodeRow, len(dirty))
		for _, u := range dirty {
			dst, w := cur.Out(u)
			overlay[u] = nodeRow{dst: dst, w: w}
		}
	}
	// The supplied Precomputed usually lacks the Schur-assembly cache (it
	// is derived state and never serialized), so the first auto rebuild
	// falls back to full — recorded as no_cache — and repopulates it, as
	// every rebuild of a Dynamic does.
	return &Dynamic{base: base, curCache: cur, overlay: overlay, p: p, opts: opts, dirty: dirty,
		lastFullNNZ: p.NNZ()}, nil
}

// encodeGraph writes a graph exactly: node count, then the destination and
// weight slices of each node's out-edges. Weights round-trip bit-for-bit.
func encodeGraph(e encoder, g *graph.Graph) {
	n := g.N()
	e.i64(int64(n))
	for u := 0; u < n; u++ {
		dst, w := g.Out(u)
		e.ints(dst)
		e.floats(w)
	}
}

// decodeGraph is the inverse of encodeGraph. Every edge is validated
// before it reaches the builder (which panics on invalid input), so a
// corrupt stream fails with an error, never a panic.
func decodeGraph(d *decoder) *graph.Graph {
	n := int(d.i64())
	if d.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen {
		d.err = fmt.Errorf("corrupt graph node count %d", n)
		return nil
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		dst := d.ints()
		w := d.floats()
		if d.err != nil {
			return nil
		}
		if len(dst) != len(w) {
			d.err = fmt.Errorf("corrupt graph row %d: %d destinations, %d weights", u, len(dst), len(w))
			return nil
		}
		for k := range dst {
			if dst[k] < 0 || dst[k] >= n {
				d.err = fmt.Errorf("corrupt graph edge %d->%d out of range n=%d", u, dst[k], n)
				return nil
			}
			if w[k] < 0 || math.IsNaN(w[k]) || math.IsInf(w[k], 0) {
				d.err = fmt.Errorf("corrupt graph edge %d->%d weight %g", u, dst[k], w[k])
				return nil
			}
			b.AddEdge(u, dst[k], w[k])
		}
	}
	return b.Build()
}
