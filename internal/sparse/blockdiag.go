package sparse

import "fmt"

// LUInverse factors a (Gilbert–Peierls LU) and returns the inverses of its
// unit-lower and upper factors in CSR form: the per-block step of
// Algorithm 1's line 5, shared by the full and the incremental rebuild.
func LUInverse(a *CSC) (linv, uinv *CSR, err error) {
	f, err := LU(a)
	if err != nil {
		return nil, nil, err
	}
	li, err := InverseLower(f.L, true)
	if err != nil {
		return nil, nil, err
	}
	ui, err := InverseUpper(f.U)
	if err != nil {
		return nil, nil, err
	}
	return li.ToCSR(), ui.ToCSR(), nil
}

// BlockDiagLUInverseCancel factors each diagonal block of a block-diagonal
// CSC matrix independently (Lemma 1 of the paper) and returns L⁻¹ and U⁻¹
// assembled in CSR form. blocks lists the consecutive block sizes, which
// must sum to the matrix dimension. Results are bit-identical to LU +
// InverseLower/InverseUpper on the whole matrix, since Gilbert–Peierls
// never mixes arithmetic across blocks.
//
// stop is a cooperative abort hook polled before each block: a non-nil
// return abandons the remaining blocks and is returned verbatim (so
// callers can match it with errors.Is through any wrapping). A nil stop
// never aborts.
func BlockDiagLUInverseCancel(a *CSC, blocks []int, stop func() error) (linv, uinv *CSR, err error) {
	if a.R != a.C {
		panic("sparse: BlockDiagLUInverseCancel requires a square matrix")
	}
	total := 0
	for _, b := range blocks {
		if b <= 0 {
			panic(fmt.Sprintf("sparse: non-positive block size %d", b))
		}
		total += b
	}
	if total != a.C {
		panic(fmt.Sprintf("sparse: blocks sum to %d, matrix is %d", total, a.C))
	}
	ls := make([]*CSR, len(blocks))
	us := make([]*CSR, len(blocks))
	lo := 0
	for bi, b := range blocks {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, nil, err
			}
		}
		hi := lo + b
		ls[bi], us[bi], err = LUInverse(a.Submatrix(lo, hi, lo, hi))
		if err != nil {
			return nil, nil, fmt.Errorf("block %d: %w", bi, err)
		}
		lo = hi
	}
	return BlockDiag(ls), BlockDiag(us), nil
}
