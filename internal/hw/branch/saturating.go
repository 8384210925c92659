package branch

import (
	"fmt"
	"sync"
)

// Saturating is an n-state saturating-counter predictor with one counter per
// branch site. States 0..TakenStates-1 (counted from the "taken" end) predict
// taken; the remaining states predict not taken. A taken branch moves the
// counter one state toward the taken end, a not-taken branch one state toward
// the not-taken end; both ends saturate.
//
// This is exactly the process whose stationary behaviour the paper models
// with a Markov chain (§3.2, Figure 5): the chain's transition probability is
// the branch's taken probability, and the paper's six-state chain corresponds
// to Saturating{States: 6, TakenStates: 3}.
type Saturating struct {
	states      int
	takenStates int
	initState   int8
	counters    []int8
	name        string
	// steps is the geometry's shared, read-only eight-branch transition table
	// (see stepsFor); ObserveBits walks it.
	steps []step8

	// Pads the struct to a multiple of 128 bytes: see the false-sharing layout
	// rule in DESIGN.md (pinned by TestLayoutNoFalseSharing).
	_ [40]byte
}

// Bias selects how an odd state count splits between taken- and
// not-taken-predicting states, mirroring the paper's "+1T" and "+1NT" chain
// variants in Figure 3.
type Bias int

const (
	// BiasNone splits states evenly; valid only for even state counts.
	BiasNone Bias = iota
	// BiasTaken gives the extra state of an odd count to the taken side (+1T).
	BiasTaken
	// BiasNotTaken gives the extra state to the not-taken side (+1NT).
	BiasNotTaken
)

// NewSaturating returns a saturating predictor with the given total number of
// states (2..16) and bias. Even state counts must use BiasNone; odd counts
// must use BiasTaken or BiasNotTaken.
func NewSaturating(states int, bias Bias) (*Saturating, error) {
	if states < 2 || states > 16 {
		return nil, fmt.Errorf("branch: state count %d out of range [2,16]", states)
	}
	var taken int
	switch {
	case states%2 == 0 && bias == BiasNone:
		taken = states / 2
	case states%2 == 1 && bias == BiasTaken:
		taken = states/2 + 1
	case states%2 == 1 && bias == BiasNotTaken:
		taken = states / 2
	default:
		return nil, fmt.Errorf("branch: state count %d incompatible with bias %v", states, bias)
	}
	name := fmt.Sprintf("saturating-%d", states)
	switch bias {
	case BiasTaken:
		name += "+1T"
	case BiasNotTaken:
		name += "+1NT"
	}
	s := &Saturating{
		states:      states,
		takenStates: taken,
		// Start on the weakest taken state: real predictors commonly
		// predict backward branches (loop bodies) taken on first sight.
		initState: int8(taken - 1),
		name:      name,
		steps:     stepsFor(states, taken),
	}
	s.Reset()
	return s, nil
}

// MustSaturating is NewSaturating that panics on invalid configuration; for
// use with compile-time-constant arguments.
func MustSaturating(states int, bias Bias) *Saturating {
	p, err := NewSaturating(states, bias)
	if err != nil {
		panic(err)
	}
	return p
}

// States returns the total number of counter states.
func (s *Saturating) States() int { return s.states }

// TakenStates returns how many states predict taken.
func (s *Saturating) TakenStates() int { return s.takenStates }

// Observe implements Predictor. State convention: 0 is "strong taken",
// states-1 is "strong not taken"; values below takenStates predict taken.
// Kept within the inline budget: it runs once per simulated conditional
// branch.
func (s *Saturating) Observe(site int, taken bool) Outcome {
	if site >= len(s.counters) {
		s.grow(site)
	}
	st := int(s.counters[site])
	pt := st < s.takenStates
	if taken {
		if st > 0 {
			s.counters[site] = int8(st - 1)
		}
	} else if st < s.states-1 {
		s.counters[site] = int8(st + 1)
	}
	return Outcome{PredictedTaken: pt, Taken: taken}
}

// ObserveN observes n consecutive branches at the given site, all with the
// same direction, and returns how many of them were mispredicted. State and
// counter effects are exactly those of n Observe calls; because a saturating
// counter walks monotonically toward the observed direction, both the final
// state and the misprediction count have closed forms and the whole batch
// costs O(1). This is the hot path of batch kernels retiring a vector's loop
// back-edge (always taken) in one call.
func (s *Saturating) ObserveN(site int, taken bool, n int) int {
	if n <= 0 {
		return 0
	}
	if site >= len(s.counters) {
		s.grow(site)
	}
	st := int(s.counters[site])
	var mp int
	if taken {
		// Step i observes state st-i (floored at 0) and mispredicts while the
		// state is still on the not-taken side (st-i >= takenStates).
		if wrong := st - s.takenStates + 1; wrong > 0 {
			mp = wrong
			if mp > n {
				mp = n
			}
		}
		st -= n
		if st < 0 {
			st = 0
		}
	} else {
		// Symmetric: mispredicts while st+i < takenStates.
		if wrong := s.takenStates - st; wrong > 0 {
			mp = wrong
			if mp > n {
				mp = n
			}
		}
		st += n
		if st > s.states-1 {
			st = s.states - 1
		}
	}
	s.counters[site] = int8(st)
	return mp
}

// step8 is what eight consecutive branches do to one counter: the state they
// leave it in (as that state's row offset in the table, state<<8) and how
// many of them it mispredicted, split by the direction the mispredicted
// branch actually took.
type step8 struct {
	next                uint16
	mpTaken, mpNotTaken uint8
}

// stepTables holds one transition table per counter geometry, indexed by
// [states][takenStates-states/2]; each is built on first use and never
// written again, so every predictor of a geometry — one per simulated core —
// reads the same backing array.
var stepTables [17][2]struct {
	once  sync.Once
	steps []step8
}

// stepsFor returns the table whose entry [st<<8|b] is the §3.2 chain's
// transition function composed eight times: the effect of Observe on a
// counter in state st for the eight directions in b, bit 0 first. It is
// built by calling Observe, so the two cannot disagree.
func stepsFor(states, takenStates int) []step8 {
	t := &stepTables[states][takenStates-states/2]
	t.once.Do(func() {
		probe := Saturating{states: states, takenStates: takenStates, counters: make([]int8, 1)}
		t.steps = make([]step8, states<<8)
		for i := range t.steps {
			probe.counters[0] = int8(i >> 8)
			mpTaken, mpNotTaken := ObserveEach(&probe, 0, []uint64{uint64(i)}, 0, 8)
			t.steps[i] = step8{uint16(probe.counters[0]) << 8, uint8(mpTaken), uint8(mpNotTaken)}
		}
	})
	return t.steps
}

// ObserveBits observes n consecutive branches at the given site whose
// directions are the low n bits of the stream bits — branch i is taken iff
// bit i%64 of bits[i/64] is set; anything above bit n is ignored — and
// returns how many were mispredicted, split by actual direction. State and
// counts are exactly those of n Observe calls in that order: whole bytes step
// the counter eight branches per table lookup, a word of 64 equal bits takes
// ObserveN's closed form (a clustered column's usual case), and the last n%8
// branches go through Observe itself.
func (s *Saturating) ObserveBits(site int, bits []uint64, n int) (mpTaken, mpNotTaken int) {
	if n <= 0 {
		return 0, 0
	}
	if site >= len(s.counters) {
		s.grow(site)
	}
	row := uint(s.counters[site]) << 8
	step := func(b uint64) {
		e := s.steps[row|uint(uint8(b))]
		row = uint(e.next)
		mpTaken += int(e.mpTaken)
		mpNotTaken += int(e.mpNotTaken)
	}
	for _, w := range bits[:n>>6] {
		if w == 0 || w == ^uint64(0) {
			s.counters[site] = int8(row >> 8)
			if mp := s.ObserveN(site, w != 0, 64); w != 0 {
				mpTaken += mp
			} else {
				mpNotTaken += mp
			}
			row = uint(s.counters[site]) << 8
			continue
		}
		for i := 0; i < 8; i++ {
			step(w)
			w >>= 8
		}
	}
	var w uint64
	rest := n & 63
	if rest > 0 {
		w = bits[n>>6]
	}
	for ; rest >= 8; rest -= 8 {
		step(w)
		w >>= 8
	}
	s.counters[site] = int8(row >> 8)
	tailTaken, tailNotTaken := ObserveEach(s, site, bits, n-rest, n)
	return mpTaken + tailTaken, mpNotTaken + tailNotTaken
}

func (s *Saturating) grow(site int) {
	n := len(s.counters) * 2
	if n <= site {
		n = site + 1
	}
	for len(s.counters) < n {
		s.counters = append(s.counters, s.initState)
	}
}

// Reset implements Predictor.
func (s *Saturating) Reset() {
	if s.counters == nil {
		s.counters = make([]int8, 128) // a whole 128-byte sector per core
	}
	for i := range s.counters {
		s.counters[i] = s.initState
	}
}

// Name implements Predictor.
func (s *Saturating) Name() string { return s.name }
