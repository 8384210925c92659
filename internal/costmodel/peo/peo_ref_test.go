package peo

import (
	"math"
	"math/rand"
	"testing"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
)

// condReadAccessesRef and countersRef are Geometry.CondReadAccesses and
// Counters as they stood when the covering lines and values per line were
// recomputed for every predicate of every call: the oracle for Model.
func condReadAccessesRef(g cachemodel.Geometry, n int, width int, access float64) float64 {
	if access <= 0 || n <= 0 {
		return 0
	}
	if access > 1 {
		access = 1
	}
	lines := g.Lines(n, width)
	vpl := float64(g.LineSize) / float64(width)
	if vpl < 1 {
		vpl = 1
	}
	// Probability at least one of the ~vpl tuples on a line is accessed.
	pTouch := 1 - math.Pow(1-access, vpl)
	touched := lines * pTouch
	// A touched line is a random access when the preceding line was skipped.
	random := lines * pTouch * (1 - pTouch)
	return touched + random
}

func countersRef(par Params, sels []float64) Estimate {
	n := float64(par.N)
	var est Estimate
	prod := 1.0
	for i, raw := range sels {
		sel := raw
		if sel < 0 {
			sel = 0
		}
		if sel > 1 {
			sel = 1
		}
		input := n * prod
		est.BNT += input * sel
		est.BTaken += input * (1 - sel)
		r := par.Chain.Predict(sel)
		est.MPTaken += r.MPTaken * input
		est.MPNotTaken += r.MPNotTaken * input
		est.L3 += condReadAccessesRef(par.Geometry, par.N, par.Widths[i], prod)
		prod *= sel
	}
	est.BTaken += n
	for _, w := range par.AggWidths {
		est.L3 += condReadAccessesRef(par.Geometry, par.N, w, prod)
	}
	est.Qualifying = n * prod
	return est
}

// TestCountersMatchReference: Counters, and one Model reset across shapes,
// reproduce the reference's bits for random shapes and selectivities,
// including out-of-range selectivities and columns wider than a line.
func TestCountersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var m Model
	for trial := 0; trial < 500; trial++ {
		p := 1 + rng.Intn(8)
		par := Params{
			N:        1 + rng.Intn(1<<16),
			Widths:   make([]int, p),
			Geometry: cachemodel.MustGeometry(64, 16384),
			Chain:    []markov.Chain{markov.Paper(), markov.AMD(), markov.MustChain(8, 4)}[rng.Intn(3)],
		}
		for i := range par.Widths {
			par.Widths[i] = []int{1, 2, 4, 8, 16, 100}[rng.Intn(6)]
		}
		for i := rng.Intn(3); i > 0; i-- {
			par.AggWidths = append(par.AggWidths, 4+4*rng.Intn(2))
		}
		sels := make([]float64, p)
		for i := range sels {
			sels[i] = -0.1 + 1.2*rng.Float64()
		}
		want := countersRef(par, sels)
		got, err := Counters(par, sels)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Reset(par); err != nil {
			t.Fatal(err)
		}
		reused, err := m.Counters(sels)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []Estimate{got, reused} {
			for _, f := range [][2]float64{
				{g.BNT, want.BNT}, {g.BTaken, want.BTaken}, {g.MPTaken, want.MPTaken},
				{g.MPNotTaken, want.MPNotTaken}, {g.L3, want.L3}, {g.Qualifying, want.Qualifying},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("trial %d (%+v, sels %v): %+v, reference %+v", trial, par, sels, g, want)
				}
			}
		}
	}
}

func TestModelSteadyStateAllocs(t *testing.T) {
	par := Params{N: 4096, Widths: []int{4, 8, 4}, AggWidths: []int{8}, Geometry: cachemodel.MustGeometry(64, 16384), Chain: markov.Paper()}
	sels := []float64{0.5, 0.3, 0.8}
	var m Model
	if err := m.Reset(par); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Reset(par); err != nil {
			t.Error(err)
		}
		if _, err := m.Counters(sels); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("Reset+Counters allocate %.0f times at steady state", n)
	}
}
