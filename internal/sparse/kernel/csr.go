package kernel

import "bear/internal/sparse"

// CSR is the baseline layout: a thin adapter over the tuned kernels of
// sparse.CSR, bit-identical to them by construction.
type CSR struct {
	m *sparse.CSR
}

// NewCSR wraps m without copying.
func NewCSR(m *sparse.CSR) *CSR { return &CSR{m: m} }

func (k *CSR) Dims() (int, int) { return k.m.R, k.m.C }
func (k *CSR) NNZ() int         { return k.m.NNZ() }
func (k *CSR) Layout() string   { return layoutCSR }

func (k *CSR) SpMV(y, x []float64, mode Mode) {
	statSpMV(layoutCSR)
	k.m.MulVecTo(y, x)
}

func (k *CSR) SpMVRange(y, x []float64, lo, hi int, mode Mode) {
	statSpMV(layoutCSR)
	k.m.MulVecRangeTo(y, x, lo, hi)
}

func (k *CSR) SpMVColRange(y, x []float64, lo, hi int, mode Mode) {
	statSpMV(layoutCSR)
	k.m.MulVecColRangeTo(y, x, lo, hi)
}

func (k *CSR) SpMM(y, x []float64, nb int, mode Mode) {
	statSpMM(layoutCSR)
	k.m.MulMultiTo(y, x, nb)
}

func (k *CSR) SpMMRange(y, x []float64, nb, lo, hi int, mode Mode) {
	statSpMM(layoutCSR)
	k.m.MulRangeMultiTo(y, x, nb, lo, hi)
}

func (k *CSR) SpMMColRange(y, x []float64, nb, lo, hi int, mode Mode) {
	statSpMM(layoutCSR)
	k.m.MulColRangeMultiTo(y, x, nb, lo, hi)
}

func (k *CSR) Residual(r, q, x []float64, mode Mode) {
	statSpMV(layoutCSR)
	sparse.ResidualTo(r, q, k.m, x)
}
