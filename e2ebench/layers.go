package main

import (
	"math"
	"time"

	"bear"
	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

// kernelMetrics times SpMV (and 16-wide SpMM) on one index's own six
// factor matrices, each in the layout the index picked for it, with an
// interleaved min-of-batches protocol: every batch is calibrated to at
// least kernelBatch of work and the factors are timed round-robin, so a
// slow phase of a shared host cannot land on one factor alone.
func kernelMetrics(v map[string]float64, g string, p *bear.Precomputed) {
	layouts := p.KernelLayouts()
	mats := []*sparse.CSR{p.L1Inv, p.U1Inv, p.H12, p.H21, p.L2Inv, p.U2Inv}
	ks := make([]kernel.Matrix, len(mats))
	bytes := 0.0
	for i, m := range mats {
		cfg, err := kernel.ParseConfig(layouts[factorNames[i]])
		if err != nil {
			cfg = kernel.Config{}
		}
		ks[i] = kernel.New(m, cfg)
		// Computed, not measured: values and column indices (8 bytes
		// each), row pointers, one read of x and one write of y.
		bytes += float64(16*m.NNZ() + 8*(m.R+1) + 8*m.R + 8*m.C)
	}
	spmv := minOfBatches(ks, 1)
	spmm := minOfBatches(ks, 16)
	total := 0.0
	for i, f := range factorNames {
		v["kernel.spmv_us."+g+"."+f] = spmv[i]
		total += spmm[i]
	}
	v["kernel.spmm16_us."+g] = total
	v["kernel.bytes_per_query."+g] = bytes
}

const (
	kernelBatch  = 200 * time.Microsecond
	kernelRounds = 7
)

// minOfBatches returns each matrix's best time per product in µs, for
// nb right-hand sides (nb = 1 is SpMV).
func minOfBatches(ks []kernel.Matrix, nb int) []float64 {
	type operand struct{ x, y []float64 }
	ops := make([]operand, len(ks))
	reps := make([]int, len(ks))
	product := func(i int) {
		if nb == 1 {
			ks[i].SpMV(ops[i].y, ops[i].x, kernel.Exact)
		} else {
			ks[i].SpMM(ops[i].y, ops[i].x, nb, kernel.Exact)
		}
	}
	for i, k := range ks {
		r, c := k.Dims()
		ops[i] = operand{x: make([]float64, c*nb), y: make([]float64, r*nb)}
		for j := range ops[i].x {
			ops[i].x[j] = 1 / float64(j+1)
		}
		reps[i] = 1
		for reps[i] < 1<<20 {
			start := time.Now()
			for j := 0; j < reps[i]; j++ {
				product(i)
			}
			if time.Since(start) >= kernelBatch {
				break
			}
			reps[i] *= 2
		}
	}
	best := make([]float64, len(ks))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < kernelRounds; r++ {
		for i := range ks {
			start := time.Now()
			for j := 0; j < reps[i]; j++ {
				product(i)
			}
			best[i] = math.Min(best[i], us(time.Since(start))/float64(reps[i]))
		}
	}
	return best
}

// setupMetrics reports the Algorithm 1 stage split from the Stats the
// preprocessing returned, and the index's size.
func setupMetrics(v map[string]float64, g string, p *bear.Precomputed) {
	st := p.Stats
	v["setup.ordering_ms."+g] = ms(st.TimeOrdering)
	v["setup.block_lu_ms."+g] = ms(st.TimeLU1)
	v["setup.schur_assembly_ms."+g] = ms(st.TimeSchur)
	v["setup.schur_factor_ms."+g] = ms(st.TimeLU2)
	v["setup.index_nnz."+g] = float64(p.NNZ())
	v["setup.hubs."+g] = float64(p.N2)
}
