package peo

import (
	"math"
	"testing"
	"testing/quick"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
)

func params(nPreds int) Params {
	widths := make([]int, nPreds)
	for i := range widths {
		widths[i] = 8
	}
	return Params{
		N:         1 << 20,
		Widths:    widths,
		AggWidths: []int{8},
		Geometry:  cachemodel.MustGeometry(64, 16384),
		Chain:     markov.Paper(),
	}
}

func TestCountersValidation(t *testing.T) {
	p := params(2)
	if _, err := Counters(p, []float64{0.5}); err == nil {
		t.Error("selectivity count mismatch accepted")
	}
	p.N = 0
	if _, err := Counters(p, []float64{0.5, 0.5}); err == nil {
		t.Error("zero tuples accepted")
	}
	p = params(2)
	p.Widths[1] = 0
	if _, err := Counters(p, []float64{0.5, 0.5}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Counters(Params{N: 10, Chain: markov.Paper()}, nil); err == nil {
		t.Error("no predicates accepted")
	}
}

func TestCountersBNTExact(t *testing.T) {
	// BNT is an exact combinatorial quantity: sum of selectivity-product
	// prefixes times N.
	p := params(3)
	sels := []float64{0.5, 0.4, 0.2}
	est, err := Counters(p, sels)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(p.N)
	want := n*0.5 + n*0.5*0.4 + n*0.5*0.4*0.2
	if math.Abs(est.BNT-want) > 1e-6 {
		t.Errorf("BNT = %v, want %v", est.BNT, want)
	}
	if math.Abs(est.Qualifying-n*0.04) > 1e-6 {
		t.Errorf("Qualifying = %v, want %v", est.Qualifying, n*0.04)
	}
}

func TestCountersBranchIdentity(t *testing.T) {
	// 2n - BTaken = qualifying (§2.2.1): BTaken = n (loop) + failures, and
	// failures = n - qualifying.
	f := func(s1, s2, s3 uint16) bool {
		sels := []float64{
			float64(s1) / math.MaxUint16,
			float64(s2) / math.MaxUint16,
			float64(s3) / math.MaxUint16,
		}
		p := params(3)
		est, err := Counters(p, sels)
		if err != nil {
			return false
		}
		got := 2*float64(p.N) - est.BTaken
		return math.Abs(got-est.Qualifying) < 1e-6*float64(p.N)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCountersOrderSensitivity(t *testing.T) {
	// The same query under two PEOs: selective-first produces fewer BNT and
	// fewer L3 accesses. This is the signal the whole paper exploits.
	p := params(2)
	selFirst := []float64{0.1, 0.9}
	selLast := []float64{0.9, 0.1}
	a, err := Counters(p, selFirst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Counters(p, selLast)
	if err != nil {
		t.Fatal(err)
	}
	if a.BNT >= b.BNT {
		t.Errorf("selective-first BNT %v not below %v", a.BNT, b.BNT)
	}
	if a.L3 >= b.L3 {
		t.Errorf("selective-first L3 %v not below %v", a.L3, b.L3)
	}
	if a.Qualifying != b.Qualifying {
		t.Error("output cardinality must be order independent")
	}
}

func TestCountersMispredictionShape(t *testing.T) {
	p := params(1)
	mpAt := func(s float64) float64 {
		est, err := Counters(p, []float64{s})
		if err != nil {
			t.Fatal(err)
		}
		return est.MP()
	}
	if mpAt(0.001) > mpAt(0.5)/10 {
		t.Error("MP at extreme selectivity should be tiny vs 50%")
	}
	if mpAt(0.999) > mpAt(0.5)/10 {
		t.Error("MP at extreme selectivity should be tiny vs 50%")
	}
}

func TestCountersClampsSelectivities(t *testing.T) {
	p := params(2)
	a, err := Counters(p, []float64{-0.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Counters(p, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("out-of-range selectivities not clamped")
	}
}
