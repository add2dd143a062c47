package sparse

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBlockDiagLUInverseMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	sizes := []int{7, 13, 1, 22, 5}
	var blocks []*CSR
	for _, sz := range sizes {
		blocks = append(blocks, randomDiagDominant(rng, sz, 0.3).ToCSR())
	}
	a := BlockDiag(blocks).ToCSC()

	f, err := LU(a)
	if err != nil {
		t.Fatalf("LU: %v", err)
	}
	wantL, err := InverseLower(f.L, true)
	if err != nil {
		t.Fatalf("InverseLower: %v", err)
	}
	wantU, err := InverseUpper(f.U)
	if err != nil {
		t.Fatalf("InverseUpper: %v", err)
	}
	gotL, gotU, err := BlockDiagLUInverseCancel(a, sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotL.Dense(), wantL.ToCSR().Dense()) {
		t.Fatal("L inverse differs")
	}
	if !reflect.DeepEqual(gotU.Dense(), wantU.ToCSR().Dense()) {
		t.Fatal("U inverse differs")
	}
}

func TestBlockDiagLUInversePanicsOnBadBlocks(t *testing.T) {
	a := IdentityCSC(5)
	for name, blocks := range map[string][]int{
		"wrong sum":   {2, 2},
		"nonpositive": {5, 0},
		"negative":    {6, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			BlockDiagLUInverseCancel(a, blocks, nil)
		}()
	}
}

func TestBlockDiagLUInverseSingularBlock(t *testing.T) {
	// Second block has an empty column: structurally singular.
	good := NewCSR(2, 2, []Coord{{0, 0, 2}, {1, 1, 2}})
	bad := NewCSR(2, 2, []Coord{{0, 0, 1}})
	a := BlockDiag([]*CSR{good, bad}).ToCSC()
	if _, _, err := BlockDiagLUInverseCancel(a, []int{2, 2}, nil); err == nil {
		t.Fatal("expected singular-block error")
	}
}
