package markov

import (
	"math"
	"testing"
)

// stationaryRef and probPredictTakenRef are Stationary and ProbPredictTaken
// as they stood when every call allocated its distribution: the oracle for
// the stack-array evaluation.
func stationaryRef(c Chain, p float64) []float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	pi := make([]float64, c.states)
	switch {
	case p == 0:
		pi[0] = 1
	case p == 1:
		pi[c.states-1] = 1
	default:
		// Detailed balance: pi[i+1]/pi[i] = p/(1-p).
		r := p / (1 - p)
		pi[0] = 1
		sum := 1.0
		for i := 1; i < c.states; i++ {
			pi[i] = pi[i-1] * r
			sum += pi[i]
		}
		for i := range pi {
			pi[i] /= sum
		}
	}
	return pi
}

func probPredictTakenRef(c Chain, p float64) float64 {
	pi := stationaryRef(c, p)
	t := 0.0
	for i := 0; i < c.takenStates; i++ {
		t += pi[i]
	}
	return t
}

// TestStationaryMatchesReference: every chain of Figure 3, a chain at the
// stack-array limit and one beyond it produce the reference's bits at
// selectivities across, at the ends of and outside [0, 1].
func TestStationaryMatchesReference(t *testing.T) {
	chains := []Chain{MustChain(maxStackStates, 8), MustChain(maxStackStates+1, 5), MustChain(40, 20)}
	for _, v := range Variants() {
		chains = append(chains, v.Chain)
	}
	ps := []float64{-0.5, 0, 1e-300, 1e-9, 0.5, 1 - 1e-16, 1, 1.5, math.NaN()}
	for i := 1; i < 200; i++ {
		ps = append(ps, float64(i)/200)
	}
	for _, c := range chains {
		for _, p := range ps {
			want := stationaryRef(c, p)
			got := c.Stationary(p)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d/%d states, p=%v: Stationary[%d] = %v, reference %v", c.states, c.takenStates, p, i, got[i], want[i])
				}
			}
			if got, want := c.ProbPredictTaken(p), probPredictTakenRef(c, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d/%d states, p=%v: ProbPredictTaken = %v, reference %v", c.states, c.takenStates, p, got, want)
			}
		}
	}
}

func TestPredictDoesNotAllocate(t *testing.T) {
	c := Paper()
	if n := testing.AllocsPerRun(100, func() { c.Predict(0.3) }); n != 0 {
		t.Errorf("Predict allocates %.0f times per call", n)
	}
}
