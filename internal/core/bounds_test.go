package core

import (
	"math"
	"testing"
	"testing/quick"
)

// TestRestrictPaperExample reproduces the paper's Figure 7 worked example:
// 4 predicates, 100 input tuples, 10 output tuples, accesses [80,70,50,10]
// (BNT = 210) restrict to lower [67,50,10,10] and upper [100,95,66,10].
func TestRestrictPaperExample(t *testing.T) {
	b, err := Restrict(4, 100, 10, 210)
	if err != nil {
		t.Fatal(err)
	}
	wantUpper := []float64{100, 95, 200.0 / 3, 10}
	wantLower := []float64{200.0 / 3, 50, 10, 10}
	for i := range wantUpper {
		if math.Abs(b.UpperBNT[i]-wantUpper[i]) > 0.5 {
			t.Errorf("UpperBNT[%d] = %v, want %v", i, b.UpperBNT[i], wantUpper[i])
		}
		if math.Abs(b.LowerBNT[i]-wantLower[i]) > 0.5 {
			t.Errorf("LowerBNT[%d] = %v, want %v", i, b.LowerBNT[i], wantLower[i])
		}
	}
	// Tuple bounds (Eq. 6/7).
	for i := 0; i < 3; i++ {
		if b.UpperTuple[i] != 100 || b.LowerTuple[i] != 10 {
			t.Errorf("tuple bounds[%d] = [%v,%v], want [10,100]", i, b.LowerTuple[i], b.UpperTuple[i])
		}
	}
	if b.UpperTuple[3] != 10 {
		t.Errorf("last upper tuple bound %v, want 10", b.UpperTuple[3])
	}
	// The true access vector must be feasible.
	if !b.Feasible([]float64{80, 70, 50, 10}) {
		t.Error("paper's example accesses rejected by its own bounds")
	}
	// Out-of-bound vectors must be rejected.
	if b.Feasible([]float64{100, 100, 100, 10}) {
		t.Error("accesses above upper BNT bound accepted")
	}
	if b.Feasible([]float64{60, 50, 10, 10}) {
		t.Error("accesses below lower BNT bound accepted")
	}
	if b.Feasible([]float64{70, 80, 50, 10}) {
		t.Error("non-monotone accesses accepted")
	}
}

func TestRestrictValidation(t *testing.T) {
	if _, err := Restrict(0, 100, 10, 50); err == nil {
		t.Error("zero predicates accepted")
	}
	if _, err := Restrict(3, 0, 0, 50); err == nil {
		t.Error("zero input accepted")
	}
	if _, err := Restrict(3, 100, 200, 50); err == nil {
		t.Error("output above input accepted")
	}
	if _, err := Restrict(3, 100, 10, -5); err == nil {
		t.Error("negative BNT accepted")
	}
}

// TestRestrictContainsTruth: for random monotone access vectors, the bounds
// computed from their implied (tupsIn, tupsOut, BNT) always contain the
// vector itself. This is the soundness property that guarantees the
// estimator never prunes the true selectivities.
func TestRestrictContainsTruth(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 1 || len(raw) > 7 {
			return true
		}
		const tupsIn = 10000.0
		// Build a monotone non-increasing access vector in [0, tupsIn].
		acc := make([]float64, len(raw))
		prev := tupsIn
		for i, r := range raw {
			v := float64(r) / math.MaxUint16 * prev
			acc[i] = v
			prev = v
		}
		bnt := 0.0
		for _, a := range acc {
			bnt += a
		}
		tupsOut := acc[len(acc)-1]
		b, err := Restrict(len(acc), tupsIn, tupsOut, bnt)
		if err != nil {
			return false
		}
		return b.Feasible(acc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRestrictBoundsOrdering(t *testing.T) {
	// Upper >= Lower everywhere, and the BNT bounds are within the tuple
	// bounds (they are strictly tighter restrictions).
	b, err := Restrict(5, 1000, 50, 1800)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.UpperBNT {
		if b.UpperBNT[i] < b.LowerBNT[i] {
			t.Errorf("position %d: upper %v < lower %v", i, b.UpperBNT[i], b.LowerBNT[i])
		}
		if b.UpperBNT[i] > b.UpperTuple[i]+1e-9 {
			t.Errorf("position %d: BNT upper %v above tuple upper %v", i, b.UpperBNT[i], b.UpperTuple[i])
		}
		if b.LowerBNT[i] < b.LowerTuple[i]-1e-9 {
			t.Errorf("position %d: BNT lower %v below tuple lower %v", i, b.LowerBNT[i], b.LowerTuple[i])
		}
	}
}

func TestProductBounds(t *testing.T) {
	b, err := Restrict(4, 100, 10, 210)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := make([]float64, 4), make([]float64, 4)
	b.productBounds(lo, hi)
	for i := range lo {
		if lo[i] < 0 || hi[i] > 1 || lo[i] > hi[i] {
			t.Errorf("product bounds[%d] = [%v,%v] invalid", i, lo[i], hi[i])
		}
	}
	if math.Abs(hi[0]-1.0) > 1e-9 { // 100/100
		t.Errorf("hi[0] = %v, want 1", hi[0])
	}
	if math.Abs(lo[3]-0.1) > 1e-9 || math.Abs(hi[3]-0.1) > 1e-9 {
		t.Error("last product not pinned to output fraction")
	}
}
