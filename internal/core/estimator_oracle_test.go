package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
)

// sameFloats reports bit equality, nil-ness included (the null-hypothesis
// fallback returns nil Products).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func checkSameEstimation(t *testing.T, label string, got Estimation, gotErr error, want Estimation, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !sameFloats(got.Sels, want.Sels) {
		t.Errorf("%s: Sels %v, reference %v", label, got.Sels, want.Sels)
	}
	if !sameFloats(got.Products, want.Products) {
		t.Errorf("%s: Products %v, reference %v", label, got.Products, want.Products)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("%s: Cost %v, reference %v", label, got.Cost, want.Cost)
	}
	if got.Starts != want.Starts || got.NMEvaluations != want.NMEvaluations {
		t.Errorf("%s: Starts/NMEvaluations %d/%d, reference %d/%d", label,
			got.Starts, got.NMEvaluations, want.Starts, want.NMEvaluations)
	}
}

// oracleCase is one estimator input.
type oracleCase struct {
	name string
	s    CounterSample
	cfg  EstimatorConfig
}

// truthSample is the forward model's counters for sels, the sample a perfect
// PMU would deliver.
func truthSample(t testing.TB, n int, widths, aggs []int, chain markov.Chain, sels []float64) CounterSample {
	t.Helper()
	est, err := peo.Counters(peo.Params{
		N: n, Widths: widths, AggWidths: aggs,
		Geometry: cachemodel.MustGeometry(64, 16384), Chain: chain,
	}, sels)
	if err != nil {
		t.Fatal(err)
	}
	return CounterSample{
		N: float64(n), BNT: est.BNT, MPTaken: est.MPTaken, MPNotTaken: est.MPNotTaken,
		L3: est.L3, Qualifying: est.Qualifying,
	}
}

func oracleCases(t testing.TB) []oracleCase {
	widthsOf := func(p int, rng *rand.Rand) []int {
		w := make([]int, p)
		for i := range w {
			w[i] = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		}
		return w
	}
	var cases []oracleCase
	rng := rand.New(rand.NewSource(14))
	for p := 1; p <= 8; p++ {
		for _, chain := range []markov.Chain{markov.Paper(), markov.AMD()} {
			widths := widthsOf(p, rng)
			sels := make([]float64, p)
			for i := range sels {
				sels[i] = 0.05 + 0.9*rng.Float64()
			}
			aggs := [][]int{nil, {8}, {8, 4}}[rng.Intn(3)]
			s := truthSample(t, 4096, widths, aggs, chain, sels)
			cfg := EstimatorConfig{Widths: widths, AggWidths: aggs, Chain: chain}
			cases = append(cases, oracleCase{name: "truth", s: s, cfg: cfg})

			noisy := s
			noisy.BNT *= 1 + 0.1*(rng.Float64()-0.5)
			noisy.MPTaken *= 1 + 0.3*(rng.Float64()-0.5)
			noisy.L3 *= 1 + 0.3*(rng.Float64()-0.5)
			cases = append(cases, oracleCase{name: "noisy", s: noisy, cfg: cfg})
		}
	}
	w4 := []int{4, 8, 4, 8}
	base := truthSample(t, 1024, w4, nil, markov.Paper(), []float64{0.5, 0.4, 0.6, 0.3})
	zero, all, bntLo, bntHi := base, base, base, base
	zero.Qualifying, zero.BNT = 0, 700
	all.Qualifying, all.BNT = all.N, 4*all.N // lo == hi in every dimension
	bntLo.BNT = 4 * bntLo.Qualifying         // every access count on its lower bound
	bntHi.BNT = 3*bntHi.N + bntHi.Qualifying // every access count on its upper bound
	cases = append(cases, []oracleCase{
		{"qualifying 0", zero, EstimatorConfig{Widths: w4}},
		{"qualifying N", all, EstimatorConfig{Widths: w4}},
		{"BNT on lower bound", bntLo, EstimatorConfig{Widths: w4}},
		{"BNT on upper bound", bntHi, EstimatorConfig{Widths: w4}},
		{"qualifying above N", CounterSample{N: 100, Qualifying: 200, BNT: 10}, EstimatorConfig{Widths: w4}},
		{"fractional N", CounterSample{N: 0.5, Qualifying: 0.25, BNT: 1}, EstimatorConfig{Widths: w4, MaxIterNM: 40}},
		{"zero width", base, EstimatorConfig{Widths: []int{4, 0, 8}, MaxIterNM: 40}},
		{"start budget 1", base, EstimatorConfig{Widths: w4, MaxStarts: 1}},
	}...)
	// Fourteen predicates: a 14-vertex simplex takes sortOrder's sort.Slice
	// branch, and 13 dimensions take the generator's Halton branch.
	w14 := widthsOf(14, rng)
	s14 := make([]float64, 14)
	for i := range s14 {
		s14[i] = 0.7 + 0.25*rng.Float64()
	}
	cases = append(cases, oracleCase{"p=14", truthSample(t, 8192, w14, []int{8}, markov.Paper(), s14),
		EstimatorConfig{Widths: w14, AggWidths: []int{8}, MaxIterNM: 400}})
	return cases
}

// TestEstimatorMatchesReference: the scratch-owning Estimator and the
// allocating reference produce the same bits on every case, both from a
// fresh estimator and from one reused across all (differently sized) cases.
func TestEstimatorMatchesReference(t *testing.T) {
	var reused Estimator
	for _, c := range oracleCases(t) {
		want, wantErr := estimateSelectivitiesRef(c.s, c.cfg)
		got, gotErr := EstimateSelectivities(c.s, c.cfg)
		label := fmt.Sprintf("%s p=%d", c.name, len(c.cfg.Widths))
		checkSameEstimation(t, label+" (fresh)", got, gotErr, want, wantErr)
		got, gotErr = reused.Estimate(c.s, c.cfg)
		checkSameEstimation(t, label+" (reused)", got, gotErr, want, wantErr)
	}
}

// TestNelderMeadMatchesReference pins the workspace simplex against the
// allocating one on plain objectives, Iterations included (Estimation does
// not expose them).
func TestNelderMeadMatchesReference(t *testing.T) {
	sphere := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			s += (v - float64(i)) * (v - float64(i))
		}
		return s
	}
	rosen := func(x []float64) float64 {
		return 100*(x[1]-x[0]*x[0])*(x[1]-x[0]*x[0]) + (1-x[0])*(1-x[0])
	}
	flat := func([]float64) float64 { return 1 }
	for _, c := range []struct {
		name string
		f    func([]float64) float64
		x0   []float64
		opt  NMOptions
	}{
		{"sphere 1-D", sphere, []float64{3}, NMOptions{AbsTol: 1e-12}},
		{"sphere 5-D", sphere, []float64{3, 3, 3, 3, 3}, NMOptions{MaxIter: 800, AbsTol: 1e-10}},
		{"sphere 13-D (sort.Slice)", sphere, make([]float64, 13), NMOptions{MaxIter: 600, AbsTol: 1e-9}},
		{"rosenbrock", rosen, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, AbsTol: 1e-14}},
		{"boxed", sphere, []float64{0.9, 0.9}, NMOptions{Lo: []float64{0, 0}, Hi: []float64{1, 1}}},
		{"degenerate box", sphere, []float64{0.5, 0.5}, NMOptions{Lo: []float64{0.5, 0}, Hi: []float64{0.5, 1}}},
		{"flat", flat, []float64{0, 0, 0}, NMOptions{}},
		{"iteration cap", sphere, []float64{100}, NMOptions{MaxIter: 3, AbsTol: 1e-300}},
	} {
		want, err := nelderMeadRef(c.f, c.x0, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := new(nmWorkspace).minimize(c.f, c.x0, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got.X, want.X) || math.Float64bits(got.F) != math.Float64bits(want.F) ||
			got.Iterations != want.Iterations || got.Evaluations != want.Evaluations {
			t.Errorf("%s: got %+v, reference %+v", c.name, got, want)
		}
	}
}

// FuzzEstimatorMatchesReference draws counter samples and configurations —
// widths for p in [1, 8], both chains, counters anywhere
// from consistent to contradictory — and requires the Estimator (fresh, and
// reused after a differently sized call) to reproduce the reference's bits.
// The seed corpus (testdata/fuzz) holds the degenerate shapes: Qualifying 0
// and N, BNT on and outside its bounds, lo == hi, non-finite counters.
func FuzzEstimatorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, pRaw uint8, widthBits uint32, n uint16, qual, bnt, mpT, mpNT, l3 float64, flags uint8) {
		p := int(pRaw)%8 + 1
		widths := make([]int, p)
		for i := range widths {
			widths[i] = 1 << (widthBits >> (4 * i) & 3) // 1, 2, 4, 8
		}
		N := float64(n)
		s := CounterSample{
			N: N, Qualifying: qual * N, BNT: bnt * N,
			MPTaken: mpT * N, MPNotTaken: mpNT * N, L3: l3 * N,
		}
		// The iteration cap keeps contradictory inputs (where the simplex
		// never converges) cheap; the default budget is the table test's.
		cfg := EstimatorConfig{Widths: widths, MaxIterNM: 300}
		if flags&1 != 0 {
			cfg.Chain = markov.AMD()
			cfg.AggWidths = []int{8}
		}
		want, wantErr := estimateSelectivitiesRef(s, cfg)
		var e Estimator
		if p > 1 {
			// Warm the buffers on another size first.
			if _, err := e.Estimate(truthSample(t, 256, widths[:p-1], nil, markov.Paper(), make([]float64, p-1)),
				EstimatorConfig{Widths: widths[:p-1], MaxIterNM: 20}); err != nil {
				t.Fatal(err)
			}
		}
		got, gotErr := e.Estimate(s, cfg)
		checkSameEstimation(t, "reused", got, gotErr, want, wantErr)
		got, gotErr = EstimateSelectivities(s, cfg)
		checkSameEstimation(t, "fresh", got, gotErr, want, wantErr)
	})
}

// TestEstimatorSteadyStateAllocs: after one warm-up call, estimating again
// at the same predicate count allocates nothing.
func TestEstimatorSteadyStateAllocs(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		widths := make([]int, p)
		sels := make([]float64, p)
		for i := range widths {
			widths[i] = 4 << (i % 2)
			sels[i] = 0.3 + 0.1*float64(i)
		}
		s := truthSample(t, 4096, widths, []int{8}, markov.Paper(), sels)
		s.L3 *= 1.05 // keep the optimum off the first start so several run
		cfg := EstimatorConfig{Widths: widths, AggWidths: []int{8}}
		var e Estimator
		if _, err := e.Estimate(s, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.Estimate(s, cfg); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("p=%d: Estimate allocates %.1f times at steady state, want 0", p, allocs)
		}
	}
}
