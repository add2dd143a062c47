package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bear/internal/frame"
	"bear/internal/sparse"
)

// Precomputed-index files are frame kind "PC". Version 3 is the only one
// written: the payload (encodePayload) ends with a flag for the retained
// exact H (Options.KeepH) and, when set, H itself. Older files still load:
// version 1 is the same payload without the H section and without the
// integrity footer; version 2 adds the footer.
const pcKind, pcVersion = "PC", 3

// Save writes the precomputed matrices in a compact, CRC-protected binary
// format so that the preprocessing phase can be paid once and reused
// across processes.
func (p *Precomputed) Save(w io.Writer) error {
	e := encoder{frame.NewWriter(w, pcKind, pcVersion)}
	p.encodePayload(e)
	if err := e.Close(); err != nil {
		return fmt.Errorf("core: saving precomputed matrices: %w", err)
	}
	return nil
}

// encodePayload writes every serialized field (everything after the magic,
// before the footer). Shared by Save and the Dynamic state snapshot.
func (p *Precomputed) encodePayload(e encoder) {
	e.i64(int64(p.N))
	e.i64(int64(p.N1))
	e.i64(int64(p.N2))
	e.f64(p.C)
	e.ints(p.Blocks)
	e.ints(p.Perm)
	e.ints(p.InvPerm)
	e.ints(p.SPerm)
	e.floats(p.OutDegree)
	for _, m := range []*sparse.CSR{p.L1Inv, p.U1Inv, p.H12, p.H21, p.L2Inv, p.U2Inv} {
		e.csr(m)
	}
	e.bool(p.H != nil)
	if p.H != nil {
		e.csr(p.H)
	}
}

// decodePayload is the inverse of encodePayload: it decodes, validates,
// and derives. withH is false only for legacy payloads that predate the H
// section. Any error yields a nil Precomputed — never a partially
// populated one.
func decodePayload(d *decoder, withH bool) (*Precomputed, error) {
	p := &Precomputed{}
	p.N = int(d.i64())
	p.N1 = int(d.i64())
	p.N2 = int(d.i64())
	p.C = d.f64()
	p.Blocks = d.ints()
	p.Perm = d.ints()
	p.InvPerm = d.ints()
	p.SPerm = d.ints()
	if len(p.SPerm) == 0 {
		p.SPerm = nil
	}
	p.OutDegree = d.floats()
	ms := make([]*sparse.CSR, 6)
	for i := range ms {
		ms[i] = d.csr()
	}
	var h *sparse.CSR
	if withH && d.bool() {
		h = d.csr()
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: loading precomputed matrices: %w", d.err)
	}
	p.L1Inv, p.U1Inv, p.H12, p.H21, p.L2Inv, p.U2Inv = ms[0], ms[1], ms[2], ms[3], ms[4], ms[5]
	p.H = h
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.initDerived()
	p.initKernels()
	return p, nil
}

// Load reads matrices previously written by Save, verifying the integrity
// footer (legacy version-1 files have none and load unchecked).
func Load(r io.Reader) (*Precomputed, error) {
	fr := frame.NewReader(r)
	v, err := fr.Version(pcKind, pcVersion)
	if err != nil {
		return nil, fmt.Errorf("core: loading precomputed matrices: %w", err)
	}
	p, err := decodePayload(&decoder{r: fr}, v >= 3)
	if err != nil {
		return nil, err
	}
	if v >= 2 {
		if err := fr.CheckFooter(); err != nil {
			return nil, fmt.Errorf("core: loading precomputed matrices: %w", err)
		}
	}
	return p, nil
}

func (p *Precomputed) validate() error {
	if p.N < 0 || p.N1 < 0 || p.N2 < 0 || p.N1+p.N2 != p.N {
		return fmt.Errorf("core: inconsistent sizes n=%d n1=%d n2=%d", p.N, p.N1, p.N2)
	}
	if p.C <= 0 || p.C >= 1 {
		return fmt.Errorf("core: restart probability %g outside (0,1)", p.C)
	}
	if len(p.Perm) != p.N || len(p.InvPerm) != p.N {
		return fmt.Errorf("core: permutation length mismatch")
	}
	for node, pos := range p.Perm {
		if pos < 0 || pos >= p.N || p.InvPerm[pos] != node {
			return fmt.Errorf("core: corrupt permutation at node %d", node)
		}
	}
	if p.SPerm != nil {
		if len(p.SPerm) != p.N2 {
			return fmt.Errorf("core: SPerm length %d, want %d", len(p.SPerm), p.N2)
		}
		seen := make([]bool, p.N2)
		for _, v := range p.SPerm {
			if v < 0 || v >= p.N2 || seen[v] {
				return fmt.Errorf("core: SPerm is not a permutation")
			}
			seen[v] = true
		}
	}
	if len(p.OutDegree) != p.N {
		return fmt.Errorf("core: OutDegree length %d, want %d", len(p.OutDegree), p.N)
	}
	blockSum := 0
	for _, b := range p.Blocks {
		if b <= 0 {
			return fmt.Errorf("core: non-positive block size %d", b)
		}
		blockSum += b
	}
	if blockSum != p.N1 {
		return fmt.Errorf("core: blocks sum to %d, want n1=%d", blockSum, p.N1)
	}
	check := func(name string, m *sparse.CSR, r, c int) error {
		if m.R != r || m.C != c {
			return fmt.Errorf("core: %s is %dx%d, want %dx%d", name, m.R, m.C, r, c)
		}
		if len(m.RowPtr) != r+1 || m.RowPtr[0] != 0 || m.RowPtr[r] != len(m.ColIdx) {
			return fmt.Errorf("core: %s has corrupt row pointers", name)
		}
		for i := 0; i < r; i++ {
			if m.RowPtr[i+1] < m.RowPtr[i] {
				return fmt.Errorf("core: %s row pointers not monotone at %d", name, i)
			}
		}
		for _, j := range m.ColIdx {
			if j < 0 || j >= c {
				return fmt.Errorf("core: %s column index %d out of %d", name, j, c)
			}
		}
		return nil
	}
	for _, chk := range []error{
		check("L1inv", p.L1Inv, p.N1, p.N1),
		check("U1inv", p.U1Inv, p.N1, p.N1),
		check("H12", p.H12, p.N1, p.N2),
		check("H21", p.H21, p.N2, p.N1),
		check("L2inv", p.L2Inv, p.N2, p.N2),
		check("U2inv", p.U2Inv, p.N2, p.N2),
	} {
		if chk != nil {
			return chk
		}
	}
	if p.H != nil {
		if err := check("H", p.H, p.N, p.N); err != nil {
			return err
		}
	}
	return nil
}

// encoder writes fields through a frame.Writer, whose first error is
// sticky and surfaces from Close.
type encoder struct{ *frame.Writer }

func (e encoder) i64(v int64) { e.U64(uint64(v)) }

func (e encoder) f64(v float64) { e.i64(int64(math.Float64bits(v))) }

func (e encoder) bool(v bool) {
	if v {
		e.i64(1)
	} else {
		e.i64(0)
	}
}

func (e encoder) str(s string) {
	e.i64(int64(len(s)))
	io.WriteString(e, s)
}

func (e encoder) ints(v []int) {
	e.i64(int64(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

func (e encoder) floats(v []float64) {
	e.i64(int64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e encoder) csr(m *sparse.CSR) {
	e.i64(int64(m.R))
	e.i64(int64(m.C))
	e.ints(m.RowPtr)
	e.ints(m.ColIdx)
	e.floats(m.Val)
}

type decoder struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, b)
}

func (d *decoder) i64() int64 {
	d.bytes(d.buf[:])
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.buf[:]))
}

func (d *decoder) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *decoder) bool() bool {
	switch d.i64() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("corrupt boolean field")
		}
		return false
	}
}

const maxSliceLen = 1 << 33 // sanity bound against corrupt headers

// maxStrLen bounds decoded strings (identifiers like ordering names, never
// bulk data), so a lying length header cannot allocate gigabytes.
const maxStrLen = 1 << 12

func (d *decoder) str() string {
	n := d.i64()
	if d.err == nil && (n < 0 || n > maxStrLen) {
		d.err = fmt.Errorf("corrupt string length %d", n)
	}
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return ""
	}
	return string(b)
}

func (d *decoder) sliceLen() int {
	n := d.i64()
	if d.err == nil && (n < 0 || n > maxSliceLen) {
		d.err = fmt.Errorf("corrupt slice length %d", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Slices grow incrementally while decoding so that a lying length header in
// a corrupt or truncated file fails at EOF instead of pre-allocating
// gigabytes and spinning through dead reads.
const decodeChunk = 1 << 16

func (d *decoder) ints() []int {
	n := d.sliceLen()
	v := make([]int, 0, min(n, decodeChunk))
	for len(v) < n && d.err == nil {
		v = append(v, int(d.i64()))
	}
	if d.err != nil {
		return nil
	}
	return v
}

func (d *decoder) floats() []float64 {
	n := d.sliceLen()
	v := make([]float64, 0, min(n, decodeChunk))
	for len(v) < n && d.err == nil {
		v = append(v, d.f64())
	}
	if d.err != nil {
		return nil
	}
	return v
}

func (d *decoder) csr() *sparse.CSR {
	m := &sparse.CSR{}
	m.R = int(d.i64())
	m.C = int(d.i64())
	m.RowPtr = d.ints()
	m.ColIdx = d.ints()
	m.Val = d.floats()
	if d.err == nil {
		if m.R < 0 || m.C < 0 || len(m.RowPtr) != m.R+1 || len(m.ColIdx) != len(m.Val) {
			d.err = fmt.Errorf("corrupt CSR header %dx%d", m.R, m.C)
		}
	}
	return m
}
