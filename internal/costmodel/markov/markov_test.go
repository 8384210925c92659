package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"progopt/internal/hw/branch"
)

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(1, 1); err == nil {
		t.Error("1-state chain accepted")
	}
	if _, err := NewChain(6, 0); err == nil {
		t.Error("0 taken states accepted")
	}
	if _, err := NewChain(6, 6); err == nil {
		t.Error("all-taken chain accepted")
	}
	if _, err := NewChain(6, 3); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
}

func TestStationaryIsDistribution(t *testing.T) {
	f := func(pRaw uint16, statesRaw, takenRaw uint8) bool {
		states := int(statesRaw%7) + 2
		taken := int(takenRaw)%(states-1) + 1
		p := float64(pRaw) / math.MaxUint16
		pi := MustChain(states, taken).Stationary(p)
		sum := 0.0
		for _, v := range pi {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStationaryExtremes(t *testing.T) {
	c := Paper()
	pi0 := c.Stationary(0)
	if pi0[0] != 1 {
		t.Errorf("p=0 mass not at strong-taken: %v", pi0)
	}
	pi1 := c.Stationary(1)
	if pi1[len(pi1)-1] != 1 {
		t.Errorf("p=1 mass not at strong-not-taken: %v", pi1)
	}
	// Clamps out-of-range input.
	if got := c.Stationary(-0.5); got[0] != 1 {
		t.Error("negative p not clamped")
	}
	if got := c.Stationary(1.5); got[len(got)-1] != 1 {
		t.Error("p>1 not clamped")
	}
}

func TestStationarySymmetry(t *testing.T) {
	// An even chain is symmetric: Stationary(p) reversed equals
	// Stationary(1-p).
	c := Paper()
	for _, p := range []float64{0.1, 0.3, 0.5, 0.77} {
		a := c.Stationary(p)
		b := c.Stationary(1 - p)
		for i := range a {
			if math.Abs(a[i]-b[len(b)-1-i]) > 1e-12 {
				t.Fatalf("asymmetry at p=%v state %d: %v vs %v", p, i, a[i], b[len(b)-1-i])
			}
		}
	}
}

func TestPredictProbabilitiesSumToOne(t *testing.T) {
	c := Paper()
	for p := 0.0; p <= 1.0; p += 0.05 {
		r := c.Predict(p)
		s := 0.0
		for _, v := range []float64{r.MPTaken, r.MPNotTaken, r.RPTaken, r.RPNotTaken} {
			if v < -1e-12 || v > 1 {
				t.Errorf("p=%v: rate %v outside [0,1]", p, v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("p=%v: rates sum to %v", p, s)
		}
	}
}

func TestPredictExtremesAreRight(t *testing.T) {
	c := Paper()
	if mp := c.Predict(0).MP(); mp != 0 {
		t.Errorf("MP at p=0 is %v", mp)
	}
	if mp := c.Predict(1).MP(); mp != 0 {
		t.Errorf("MP at p=1 is %v", mp)
	}
	// Worst case near 50%.
	if mp := c.Predict(0.5).MP(); mp < 0.3 {
		t.Errorf("MP at p=0.5 is %v, expected near max", mp)
	}
}

func TestPredictPeakShift(t *testing.T) {
	// The paper (Fig 3) notes taken/not-taken misprediction peaks are offset
	// ~10% from the 50% peak of total mispredictions. Locate the peaks.
	c := Paper()
	argmax := func(f func(Rates) float64) float64 {
		best, bestP := -1.0, 0.0
		for p := 0.0; p <= 1.0; p += 0.01 {
			if v := f(c.Predict(p)); v > best {
				best, bestP = v, p
			}
		}
		return bestP
	}
	pTak := argmax(func(r Rates) float64 { return r.MPTaken })
	pNot := argmax(func(r Rates) float64 { return r.MPNotTaken })
	pAll := argmax(func(r Rates) float64 { return r.MP() })
	if math.Abs(pAll-0.5) > 0.03 {
		t.Errorf("total MP peak at %v, want ~0.5", pAll)
	}
	// A taken branch is mispredicted when the predictor leans not-taken,
	// which happens when most branches are not taken: the taken-MP peak sits
	// above 50% selectivity and the not-taken-MP peak below (Fig 3a/3b).
	if pTak <= 0.5 || pNot >= 0.5 {
		t.Errorf("taken MP peak %v must be above 0.5, not-taken peak %v below", pTak, pNot)
	}
	if math.Abs((0.5-pTak)-(pNot-0.5)) > 0.05 {
		t.Errorf("peak shifts asymmetric: %v vs %v", 0.5-pTak, pNot-0.5)
	}
}

func TestSixStateMatchesSimulatedIvy(t *testing.T) {
	// Keystone of Figure 3: the 6-state chain matches the simulated Ivy
	// Bridge predictor almost exactly, and the 2-state chain does not.
	rng := rand.New(rand.NewSource(99))
	const n = 200000
	maxErr6, maxErr2 := 0.0, 0.0
	for _, p := range []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9} {
		pred, err := branch.ForArch(branch.ArchIvyBridge)
		if err != nil {
			t.Fatal(err)
		}
		mpT, mpNT := 0, 0
		for i := 0; i < n; i++ {
			taken := rng.Float64() >= p
			out := pred.Observe(0, taken)
			if out.Mispredicted() {
				if taken {
					mpT++
				} else {
					mpNT++
				}
			}
		}
		gotT, gotNT := float64(mpT)/n, float64(mpNT)/n
		r6 := Paper().Predict(p)
		r2 := MustChain(2, 1).Predict(p)
		e6 := math.Max(math.Abs(gotT-r6.MPTaken), math.Abs(gotNT-r6.MPNotTaken))
		e2 := math.Max(math.Abs(gotT-r2.MPTaken), math.Abs(gotNT-r2.MPNotTaken))
		if e6 > maxErr6 {
			maxErr6 = e6
		}
		if e2 > maxErr2 {
			maxErr2 = e2
		}
	}
	if maxErr6 > 0.01 {
		t.Errorf("6-state chain max error vs simulated Ivy %v, want < 0.01", maxErr6)
	}
	if maxErr2 < maxErr6*2 {
		t.Errorf("2-state chain (err %v) should fit far worse than 6-state (err %v)", maxErr2, maxErr6)
	}
}

func TestCounts(t *testing.T) {
	mpT, mpNT, mp := Paper().Counts(0.5, 1000)
	if math.Abs(mp-(mpT+mpNT)) > 1e-9 {
		t.Error("Counts total != parts")
	}
	if mp <= 0 || mp > 500 {
		t.Errorf("Counts(0.5, 1000) mp = %v, want in (0, 500]", mp)
	}
}

func TestZeuchMP(t *testing.T) {
	cases := map[float64]float64{0: 0, 0.25: 0.25, 0.5: 0.5, 0.75: 0.25, 1: 0}
	for p, want := range cases {
		if got := ZeuchMP(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("ZeuchMP(%v) = %v, want %v", p, got, want)
		}
	}
	// The paper's point: Eq. 3 "becomes inaccurate in the selectivity range
	// around 50%". On i.i.d. streams a saturating counter is slightly WORSE
	// than the best static prediction near 50% (it spends stationary mass on
	// the minority side), so the chain model exceeds Eq. 3 there, while both
	// agree at the extremes.
	if diff := Paper().Predict(0.45).MP() - ZeuchMP(0.45); diff <= 0.01 {
		t.Errorf("chain-vs-Zeuch gap at p=0.45 is %v, want clearly positive", diff)
	}
	for _, p := range []float64{0.02, 0.98} {
		if diff := math.Abs(Paper().Predict(p).MP() - ZeuchMP(p)); diff > 0.01 {
			t.Errorf("models disagree by %v at extreme p=%v", diff, p)
		}
	}
}

func TestVariants(t *testing.T) {
	vs := Variants()
	if len(vs) != 8 {
		t.Fatalf("got %d variants, want 8", len(vs))
	}
	wantStates := []int{2, 4, 5, 5, 6, 7, 7, 8}
	for i, v := range vs {
		if v.Chain.States() != wantStates[i] {
			t.Errorf("variant %d (%s): %d states, want %d", i, v.Label, v.Chain.States(), wantStates[i])
		}
		if v.Label == "" {
			t.Errorf("variant %d lacks a label", i)
		}
	}
	// Bias variants differ from each other.
	if Variants()[2].Chain.TakenStates() == Variants()[3].Chain.TakenStates() {
		t.Error("5-state +1NT and +1T must differ in taken states")
	}
}

func TestFourStateFitsAMDSimBetterOnPaperMetric(t *testing.T) {
	// The AMD profile is a 4-state counter; verify the 4-state chain fits the
	// simulated AMD predictor better than the 6-state chain does.
	rng := rand.New(rand.NewSource(123))
	const n = 200000
	err4, err6 := 0.0, 0.0
	for _, p := range []float64{0.2, 0.4, 0.5, 0.6, 0.8} {
		pred, _ := branch.ForArch(branch.ArchAMD)
		mp := 0
		for i := 0; i < n; i++ {
			taken := rng.Float64() >= p
			if pred.Observe(0, taken).Mispredicted() {
				mp++
			}
		}
		got := float64(mp) / n
		err4 += math.Abs(got - AMD().Predict(p).MP())
		err6 += math.Abs(got - Paper().Predict(p).MP())
	}
	if err4 >= err6 {
		t.Errorf("4-state chain error %v not below 6-state %v on AMD sim", err4, err6)
	}
}
