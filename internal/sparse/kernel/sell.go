package kernel

import (
	"math"

	"bear/internal/sparse"
)

// sellC is the SELL slice height: 8 rows advance in lockstep, matching
// the accumulator count a single core can keep live.
const sellC = 8

// SELL is a SELL-C-σ layout (sliced ELLPACK, C=8, σ=C): rows are grouped
// into slices of 8, sorted by descending length within the slice, and
// entries stored column-position-major so one pass over a slice advances
// eight row accumulators together. Within a row, positions are visited in
// ascending stored-column order — the baseline CSR order — so results
// are bit-identical to it.
//
// Only the full SpMV is served natively; ranged, column-windowed and
// multi-RHS kernels delegate to the source CSR, whose row-addressed form
// those access patterns need anyway.
type SELL struct {
	src      *sparse.CSR
	rowOrder []int32   // rows slice-by-slice, longest first within a slice
	cntPtr   []int     // per slice: window into colCnt
	colCnt   []int32   // per column position: rows still active
	val      []float64 // entries, column-position-major within each slice
	col      []int32
}

// NewSELL builds the sliced layout over m, copying entries. Returns nil
// when m's column count cannot be narrowed to int32.
func NewSELL(m *sparse.CSR) *SELL {
	if m.C > math.MaxInt32 {
		return nil
	}
	numSlices := (m.R + sellC - 1) / sellC
	k := &SELL{
		src:      m,
		rowOrder: make([]int32, m.R),
		cntPtr:   make([]int, numSlices+1),
		val:      make([]float64, 0, m.NNZ()),
		col:      make([]int32, 0, m.NNZ()),
	}
	rowLen := func(i int32) int { return m.RowPtr[i+1] - m.RowPtr[i] }
	for s := 0; s < numSlices; s++ {
		lo := s * sellC
		hi := lo + sellC
		if hi > m.R {
			hi = m.R
		}
		order := k.rowOrder[lo:hi]
		for i := range order {
			order[i] = int32(lo + i)
		}
		// Stable insertion sort by descending length: a slice holds at
		// most sellC rows, and sort.SliceStable's per-call setup would
		// cost more than the sort itself.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && rowLen(order[j]) > rowLen(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		width := 0
		if len(order) > 0 {
			width = rowLen(order[0])
		}
		for p := 0; p < width; p++ {
			cnt := 0
			for _, row := range order {
				if rowLen(row) <= p {
					break // sorted descending: the rest are shorter
				}
				cnt++
				kk := m.RowPtr[row] + p
				k.val = append(k.val, m.Val[kk])
				k.col = append(k.col, int32(m.ColIdx[kk]))
			}
			k.colCnt = append(k.colCnt, int32(cnt))
		}
		k.cntPtr[s+1] = len(k.colCnt)
	}
	return k
}

func (k *SELL) Dims() (int, int) { return k.src.R, k.src.C }
func (k *SELL) NNZ() int         { return k.src.NNZ() }
func (k *SELL) Layout() string   { return layoutSELL }

func (k *SELL) SpMV(y, x []float64, mode Mode) {
	statSpMV(layoutSELL)
	cur := 0
	for s := 0; s+1 < len(k.cntPtr); s++ {
		lo := s * sellC
		hi := lo + sellC
		if hi > len(y) {
			hi = len(y)
		}
		rows := k.rowOrder[lo:hi]
		var a [sellC]float64
		for p := k.cntPtr[s]; p < k.cntPtr[s+1]; p++ {
			if cnt := int(k.colCnt[p]); cnt == sellC {
				v, c := k.val[cur:cur+sellC], k.col[cur:cur+sellC]
				a[0] += v[0] * x[c[0]]
				a[1] += v[1] * x[c[1]]
				a[2] += v[2] * x[c[2]]
				a[3] += v[3] * x[c[3]]
				a[4] += v[4] * x[c[4]]
				a[5] += v[5] * x[c[5]]
				a[6] += v[6] * x[c[6]]
				a[7] += v[7] * x[c[7]]
				cur += sellC
			} else {
				for r := 0; r < cnt; r++ {
					a[r] += k.val[cur] * x[k.col[cur]]
					cur++
				}
			}
		}
		for r, row := range rows {
			y[row] = a[r]
		}
	}
}

func (k *SELL) SpMVRange(y, x []float64, lo, hi int, mode Mode) {
	statSpMV(layoutSELL)
	k.src.MulVecRangeTo(y, x, lo, hi)
}

func (k *SELL) SpMVColRange(y, x []float64, lo, hi int, mode Mode) {
	statSpMV(layoutSELL)
	k.src.MulVecColRangeTo(y, x, lo, hi)
}

func (k *SELL) SpMM(y, x []float64, nb int, mode Mode) {
	statSpMM(layoutSELL)
	k.src.MulMultiTo(y, x, nb)
}

func (k *SELL) SpMMRange(y, x []float64, nb, lo, hi int, mode Mode) {
	statSpMM(layoutSELL)
	k.src.MulRangeMultiTo(y, x, nb, lo, hi)
}

func (k *SELL) SpMMColRange(y, x []float64, nb, lo, hi int, mode Mode) {
	statSpMM(layoutSELL)
	k.src.MulColRangeMultiTo(y, x, nb, lo, hi)
}

func (k *SELL) Residual(r, q, x []float64, mode Mode) {
	statSpMV(layoutSELL)
	sparse.ResidualTo(r, q, k.src, x)
}
