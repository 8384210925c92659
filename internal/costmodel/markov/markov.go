// Package markov implements the paper's branch cost model (§3.2): the
// stationary distribution of an n-state Markov chain whose transition
// probability is the predicate's selectivity, and the misprediction formulas
// (Eq. 5) derived from it. It also implements the simpler piecewise model of
// Zeuch et al. (Eq. 3) the paper compares against.
//
// Note on the paper's equation system (Eq. 4): equation (4f) as printed is
// not a balance equation of the chain in Figure 5 (its right-hand side mixes
// an extra factor p into the inflow term). The chain is a birth-death process
// with reflecting boundaries, so we solve it in closed form through detailed
// balance, which reproduces the paper's plotted six-state curves.
package markov

import (
	"fmt"
	"math"
)

// Chain is an n-state saturating-counter chain. TakenStates of the states
// predict "taken"; the rest predict "not taken". Selectivity p is the
// probability that a branch is NOT taken (the tuple qualifies), matching the
// compiled selection loop of §2.1.
type Chain struct {
	states      int
	takenStates int
}

// NewChain builds a chain with the given total and taken-predicting state
// counts.
func NewChain(states, takenStates int) (Chain, error) {
	if states < 2 {
		return Chain{}, fmt.Errorf("markov: need at least 2 states, got %d", states)
	}
	if takenStates < 1 || takenStates >= states {
		return Chain{}, fmt.Errorf("markov: taken states %d outside [1,%d]", takenStates, states-1)
	}
	return Chain{states: states, takenStates: takenStates}, nil
}

// MustChain is NewChain that panics on invalid arguments.
func MustChain(states, takenStates int) Chain {
	c, err := NewChain(states, takenStates)
	if err != nil {
		panic(err)
	}
	return c
}

// Paper returns the six-state chain the paper selects for Intel CPUs
// (Sandy Bridge through Broadwell).
func Paper() Chain { return MustChain(6, 3) }

// AMD returns the four-state chain the paper found most precise on AMD CPUs.
func AMD() Chain { return MustChain(4, 2) }

// Variant couples a chain with the label used in the paper's Figure 3.
type Variant struct {
	Label string
	Chain Chain
}

// Variants returns the chains compared in Figure 3: 2, 4, 5(+1NT), 5(+1T),
// 6, 7(+1T), 7(+1NT), and 8 states.
func Variants() []Variant {
	return []Variant{
		{"2 States", MustChain(2, 1)},
		{"4 States", MustChain(4, 2)},
		{"5 States (+1NT)", MustChain(5, 2)},
		{"5 States (+1T)", MustChain(5, 3)},
		{"6 States", MustChain(6, 3)},
		{"7 States (+1T)", MustChain(7, 4)},
		{"7 States (+1NT)", MustChain(7, 3)},
		{"8 States", MustChain(8, 4)},
	}
}

// States returns the total state count.
func (c Chain) States() int { return c.states }

// TakenStates returns the count of taken-predicting states.
func (c Chain) TakenStates() int { return c.takenStates }

// Stationary returns the stationary distribution over states for selectivity
// p in [0,1]. State 0 is "strong taken"; state states-1 is "strong not
// taken". A not-taken outcome (probability p) moves one state up, a taken
// outcome (probability 1-p) one state down, saturating at the ends.
func (c Chain) Stationary(p float64) []float64 {
	pi := make([]float64, c.states)
	stationary(pi, p)
	return pi
}

// stationary fills the zeroed slice pi (one element per state) with the
// stationary distribution for selectivity p.
func stationary(pi []float64, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	switch {
	case p == 0:
		pi[0] = 1
	case p == 1:
		pi[len(pi)-1] = 1
	default:
		// Detailed balance: pi[i+1]/pi[i] = p/(1-p).
		r := p / (1 - p)
		pi[0] = 1
		sum := 1.0
		for i := 1; i < len(pi); i++ {
			pi[i] = float64(pi[i-1] * r)
			sum += pi[i]
		}
		for i := range pi {
			pi[i] /= sum
		}
	}
}

// maxStackStates is the largest chain whose distribution ProbPredictTaken
// evaluates in a stack array; every chain the paper considers (Variants) has
// at most eight states.
const maxStackStates = 16

// ProbPredictTaken returns the stationary probability that the predictor
// predicts "taken" (the paper's B_Tak). It is the estimator's innermost call
// (once per predicate per objective evaluation) and does not allocate for
// chains of up to maxStackStates states.
func (c Chain) ProbPredictTaken(p float64) float64 {
	var buf [maxStackStates]float64
	var pi []float64
	if c.states <= maxStackStates {
		pi = buf[:c.states]
	} else {
		pi = make([]float64, c.states)
	}
	stationary(pi, p)
	t := 0.0
	for i := 0; i < c.takenStates; i++ {
		t += pi[i]
	}
	return t
}

// Rates are the per-branch event probabilities of Eq. (5). Multiplying by
// the number of branches yields expected event counts.
type Rates struct {
	// MPTaken is the probability of a mispredicted taken branch (Eq. 5a).
	MPTaken float64
	// RPTaken is the probability of a correctly predicted taken branch (5b).
	RPTaken float64
	// MPNotTaken is the probability of a mispredicted not-taken branch (5c).
	MPNotTaken float64
	// RPNotTaken is a correctly predicted not-taken branch (5d).
	RPNotTaken float64
}

// MP returns the total misprediction probability. (The paper's Eq. 5e prints
// BTakMP + BNotTakRP, an evident typo for BTakMP + BNotTakMP.)
func (r Rates) MP() float64 { return r.MPTaken + r.MPNotTaken }

// Predict evaluates Eq. (5) for a branch that is not taken with probability p
// (i.e. a selection predicate of selectivity p).
func (c Chain) Predict(p float64) Rates {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	bTak := c.ProbPredictTaken(p)
	bNotTak := 1 - bTak
	q := 1 - p // probability the branch is taken
	return Rates{
		MPTaken:    q * bNotTak,
		RPTaken:    q * bTak,
		MPNotTaken: p * bTak,
		RPNotTaken: p * bNotTak,
	}
}

// Counts scales Predict by n branches, returning expected event counts.
func (c Chain) Counts(p float64, n float64) (mpTaken, mpNotTaken, mp float64) {
	r := c.Predict(p)
	return r.MPTaken * n, r.MPNotTaken * n, r.MP() * n
}

// ZeuchMP is the baseline estimate of Zeuch et al. (Eq. 3): mispredictions
// equal branches not taken below 50% selectivity and branches taken above.
// As a per-branch probability that is min(p, 1-p).
func ZeuchMP(p float64) float64 {
	return math.Min(math.Max(p, 0), math.Max(1-p, 0))
}
