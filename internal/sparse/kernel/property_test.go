package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bear/internal/sparse"
	"bear/internal/sparse/kernel"
)

func randCSR(rng *rand.Rand, r, c int, density float64) *sparse.CSR {
	var coords []sparse.Coord
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return sparse.NewCSR(r, c, coords)
}

// blockDiagCSR emits a block-diagonal matrix with dense-ish blocks — the
// shape of BEAR's spoke factors.
func blockDiagCSR(rng *rand.Rand, blocks []int, fill float64) *sparse.CSR {
	var coords []sparse.Coord
	off := 0
	for _, b := range blocks {
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				if i == j || rng.Float64() < fill {
					coords = append(coords, sparse.Coord{Row: off + i, Col: off + j, Val: rng.NormFloat64()})
				}
			}
		}
		off += b
	}
	return sparse.NewCSR(off, off, coords)
}

type layoutCase struct {
	name  string
	build func(m *sparse.CSR) kernel.Matrix
}

// layoutCases enumerates every storage layout the property tests cover.
func layoutCases(t testing.TB) []layoutCase {
	return []layoutCase{
		{"csr", func(m *sparse.CSR) kernel.Matrix { return kernel.NewCSR(m) }},
		{"sell", func(m *sparse.CSR) kernel.Matrix {
			s := kernel.NewSELL(m)
			if s == nil {
				t.Fatal("NewSELL returned nil for an int32-narrowable matrix")
			}
			return s
		}},
	}
}

// checkVec asserts a kernel result is bit-identical to the baseline.
func checkVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: y[%d] = %v, baseline %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

func fixtures(rng *rand.Rand) map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"random-sparse":  randCSR(rng, 97, 97, 0.06),
		"random-dense":   randCSR(rng, 40, 40, 0.45),
		"rect-wide":      randCSR(rng, 31, 120, 0.1),
		"rect-tall":      randCSR(rng, 120, 31, 0.1),
		"block-diagonal": blockDiagCSR(rng, []int{17, 9, 30, 1, 24}, 0.7),
		"empty-rows":     sparse.NewCSR(50, 50, []sparse.Coord{{Row: 3, Col: 7, Val: 2}, {Row: 48, Col: 0, Val: -1}}),
		"empty":          sparse.NewCSR(8, 8, nil),
	}
}

// TestKernelLayoutsMatchBaseline is the satellite property test: random
// graphs × every layout, asserting bit-identical results vs baseline CSR
// in Exact mode for every primitive in the Matrix interface.
func TestKernelLayoutsMatchBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for mname, m := range fixtures(rng) {
		x := make([]float64, m.C)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		q := make([]float64, m.R)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		const nb = 3
		xm := make([]float64, m.C*nb)
		for i := range xm {
			xm[i] = rng.NormFloat64()
		}
		rowWins := [][2]int{{0, m.R}, {m.R / 3, 2 * m.R / 3}, {m.R / 2, m.R / 2}}
		colWins := [][2]int{{0, m.C}, {m.C / 4, 3 * m.C / 4}}

		// Baselines straight from the sparse package.
		wantVec := make([]float64, m.R)
		m.MulVecTo(wantVec, x)
		wantRes := make([]float64, m.R)
		sparse.ResidualTo(wantRes, q, m, x)
		wantMM := make([]float64, m.R*nb)
		m.MulMultiTo(wantMM, xm, nb)

		for _, lc := range layoutCases(t) {
			k := lc.build(m)
			if r, c := k.Dims(); r != m.R || c != m.C {
				t.Fatalf("%s/%s: Dims = %dx%d, want %dx%d", mname, lc.name, r, c, m.R, m.C)
			}
			if k.NNZ() != m.NNZ() {
				t.Fatalf("%s/%s: NNZ = %d, want %d", mname, lc.name, k.NNZ(), m.NNZ())
			}
			const mode = kernel.Exact
			tag := fmt.Sprintf("%s/%s", mname, lc.name)

			y := make([]float64, m.R)
			k.SpMV(y, x, mode)
			checkVec(t, tag+"/SpMV", y, wantVec)
			// Determinism: a second call must reproduce the first bit
			// for bit.
			y2 := make([]float64, m.R)
			k.SpMV(y2, x, mode)
			checkVec(t, tag+"/SpMV-repeat", y2, y)

			for _, w := range rowWins {
				lo, hi := w[0], w[1]
				want := make([]float64, m.R)
				m.MulVecRangeTo(want, x, lo, hi)
				got := make([]float64, m.R)
				k.SpMVRange(got, x, lo, hi, mode)
				checkVec(t, fmt.Sprintf("%s/SpMVRange[%d:%d]", tag, lo, hi), got[lo:hi], want[lo:hi])
			}
			for _, w := range colWins {
				lo, hi := w[0], w[1]
				want := make([]float64, m.R)
				m.MulVecColRangeTo(want, x, lo, hi)
				got := make([]float64, m.R)
				k.SpMVColRange(got, x, lo, hi, mode)
				checkVec(t, fmt.Sprintf("%s/SpMVColRange[%d:%d]", tag, lo, hi), got, want)
			}

			ym := make([]float64, m.R*nb)
			k.SpMM(ym, xm, nb, mode)
			checkVec(t, tag+"/SpMM", ym, wantMM)
			for _, w := range rowWins {
				lo, hi := w[0], w[1]
				want := make([]float64, m.R*nb)
				m.MulRangeMultiTo(want, xm, nb, lo, hi)
				got := make([]float64, m.R*nb)
				k.SpMMRange(got, xm, nb, lo, hi, mode)
				checkVec(t, fmt.Sprintf("%s/SpMMRange[%d:%d]", tag, lo, hi), got[lo*nb:hi*nb], want[lo*nb:hi*nb])
			}
			for _, w := range colWins {
				lo, hi := w[0], w[1]
				want := make([]float64, m.R*nb)
				m.MulColRangeMultiTo(want, xm, nb, lo, hi)
				got := make([]float64, m.R*nb)
				k.SpMMColRange(got, xm, nb, lo, hi, mode)
				checkVec(t, fmt.Sprintf("%s/SpMMColRange[%d:%d]", tag, lo, hi), got, want)
			}

			if m.R == m.C {
				res := make([]float64, m.R)
				k.Residual(res, q, x, mode)
				checkVec(t, tag+"/Residual", res, wantRes)
			}
		}
	}
}

func TestParseConfig(t *testing.T) {
	for spec, want := range map[string]kernel.Config{
		"":     {},
		"auto": {},
		"csr":  {Layout: kernel.ForceCSR},
		"sell": {Layout: kernel.ForceSELL},
	} {
		got, err := kernel.ParseConfig(spec)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", spec, err)
		}
		if got != want {
			t.Fatalf("ParseConfig(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, spec := range []string{"blocked-nonsense", "hybrid", "parallel"} {
		if _, err := kernel.ParseConfig(spec); err == nil {
			t.Fatalf("ParseConfig accepted the unknown spec %q", spec)
		}
	}
}

// TestAutoSelection pins the heuristic: near-diagonal matrices (mean ≤ 2
// entries per row, where SELL measures ~1.5× over CSR) pick SELL, denser
// ones stay on CSR, and small matrices never pay layout construction.
func TestAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Near-diagonal: 1–2 entries per row, the spoke-factor shape of
	// periphery-heavy graphs.
	nearDiag := blockDiagCSR(rng, func() []int {
		blocks := make([]int, 300)
		for i := range blocks {
			blocks[i] = 1 + i%2
		}
		return blocks
	}(), 1)
	if got := kernel.New(nearDiag, kernel.Config{}).Layout(); got != "sell" {
		t.Fatalf("near-diagonal auto layout = %s, want sell", got)
	}
	// Dense blocks: ~40 entries per row — CSR stays.
	spoke := blockDiagCSR(rng, []int{40, 40, 40}, 1)
	if got := kernel.New(spoke, kernel.Config{}).Layout(); got != "csr" {
		t.Fatalf("dense-block auto layout = %s, want csr", got)
	}
	tiny := sparse.Identity(40)
	if got := kernel.New(tiny, kernel.Config{}).Layout(); got != "csr" {
		t.Fatalf("tiny auto layout = %s, want csr", got)
	}
	if got := kernel.New(spoke, kernel.Config{Layout: kernel.ForceSELL}).Layout(); got != "sell" {
		t.Fatalf("forced layout = %s, want sell", got)
	}
}
