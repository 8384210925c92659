package branch

import (
	"math/rand"
	"testing"
)

// repeatObserver is the batched-observation fast path shared by the
// predictors under test.
type repeatObserver interface {
	Predictor
	ObserveN(site int, taken bool, n int) int
}

// drive feeds the same random schedule of single and batched same-direction
// observations to a fast-path predictor and a reference twin that only ever
// uses Observe, asserting identical misprediction counts at every step and
// identical outcome streams afterwards.
func drive(t *testing.T, name string, mk func() repeatObserver, rng *rand.Rand) {
	t.Helper()
	fast, ref := mk(), mk()
	sites := rng.Intn(4) + 1
	for step := 0; step < 200; step++ {
		site := rng.Intn(sites)
		taken := rng.Intn(2) == 0
		n := rng.Intn(40) + 1
		got := fast.ObserveN(site, taken, n)
		want := 0
		for i := 0; i < n; i++ {
			if ref.Observe(site, taken).Mispredicted() {
				want++
			}
		}
		if got != want {
			t.Fatalf("%s: step %d (site %d taken %v n %d): ObserveN %d mispredicts, Observe loop %d",
				name, step, site, taken, n, got, want)
		}
	}
	// Post-batch state must match: identical outcomes for a mixed tail.
	for i := 0; i < 64; i++ {
		site := rng.Intn(sites)
		taken := rng.Intn(3) != 0
		a, b := fast.Observe(site, taken), ref.Observe(site, taken)
		if a != b {
			t.Fatalf("%s: tail outcome %d diverged: %+v vs %+v", name, i, a, b)
		}
	}
}

func TestObserveNMatchesObserveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		drive(t, "saturating-6", func() repeatObserver { return MustSaturating(6, BiasNone) }, rng)
		drive(t, "saturating-4", func() repeatObserver { return MustSaturating(4, BiasNone) }, rng)
		drive(t, "saturating-5+1T", func() repeatObserver { return MustSaturating(5, BiasTaken) }, rng)
		drive(t, "gshare", func() repeatObserver { return MustGshare(10, 6) }, rng)
	}
}

func TestObserveNZeroAndSaturated(t *testing.T) {
	s := MustSaturating(6, BiasNone)
	if got := s.ObserveN(0, true, 0); got != 0 {
		t.Fatalf("ObserveN(0) = %d", got)
	}
	// Saturate fully taken, then a long taken batch mispredicts nothing.
	s.ObserveN(0, true, 10)
	if got := s.ObserveN(0, true, 1_000_000); got != 0 {
		t.Fatalf("saturated taken batch mispredicted %d", got)
	}
	// Flipping direction mispredicts exactly takenStates times (states walked
	// from strong-taken across the taken side).
	if got := s.ObserveN(0, false, 1_000_000); got != s.TakenStates() {
		t.Fatalf("direction flip mispredicted %d, want %d", got, s.TakenStates())
	}
}

// TestObserveBitsMatchesObserveLoop holds ObserveBits to its definition on
// the predictor alone (the PMU side is internal/hw/cpu's exactness test):
// for every geometry, random streams of every length up to three words —
// every fourth one of equal bits — mispredict as often, per direction, as the
// same directions through Observe, and leave the same counter behind, at a
// site inside the initial table and at one that makes it grow.
func TestObserveBitsMatchesObserveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for states := 2; states <= 16; states++ {
		biases := []Bias{BiasNone}
		if states%2 == 1 {
			biases = []Bias{BiasTaken, BiasNotTaken}
		}
		for _, bias := range biases {
			fast, ref := MustSaturating(states, bias), MustSaturating(states, bias)
			for n := 0; n <= 192; n++ {
				site := []int{2, 500}[n&1]
				bits := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
				if n%4 == 3 {
					bits[0], bits[1] = -uint64(n>>2&1), -uint64(n>>3&1)
				}
				var wantT, wantNT int
				for i := 0; i < n; i++ {
					if out := ref.Observe(site, bits[i>>6]>>(i&63)&1 == 1); out.Mispredicted() {
						if out.Taken {
							wantT++
						} else {
							wantNT++
						}
					}
				}
				gotT, gotNT := fast.ObserveBits(site, bits, n)
				if gotT != wantT || gotNT != wantNT || fast.counters[site] != ref.counters[site] {
					t.Fatalf("%s site %d n %d bits %#x: ObserveBits mispredicts %d/%d and leaves state %d, Observe loop %d/%d and %d",
						fast.Name(), site, n, bits, gotT, gotNT, fast.counters[site], wantT, wantNT, ref.counters[site])
				}
			}
		}
	}
}
