// Package branch implements software models of CPU branch-prediction units.
//
// The paper's progressive optimizer consumes four performance counters, two
// of which (taken and not-taken branch mispredictions) depend on the CPU's
// branch predictor. Because this reproduction runs on simulated hardware,
// the predictors here stand in for the prediction units of the evaluated
// microarchitectures: an n-state saturating counter per branch site models
// Sandy Bridge, Ivy Bridge, Broadwell (6 states) and AMD (4 states) — the
// paper's own empirical finding (§3.2) — while a gshare predictor models the
// older Nehalem part, whose measured behaviour deviates from the saturating
// model in the paper's Figure 6.
//
// A "site" identifies one static conditional-branch instruction in the
// compiled query loop (one per predicate plus one loop branch). Re-JITing a
// query produces new branch addresses, which Reset emulates by clearing all
// per-site state.
package branch

// Outcome reports how a predictor handled one dynamic branch.
type Outcome struct {
	// PredictedTaken is the prediction made before the branch resolved.
	PredictedTaken bool
	// Taken is the actual direction of the branch.
	Taken bool
}

// Mispredicted reports whether the prediction disagreed with the outcome.
func (o Outcome) Mispredicted() bool { return o.PredictedTaken != o.Taken }

// Predictor models a branch-prediction unit with per-site state.
//
// Implementations must be deterministic: the same sequence of Observe calls
// after a Reset yields the same outcomes.
type Predictor interface {
	// Observe predicts the branch at the given site, then updates internal
	// state with the actual direction, returning both.
	Observe(site int, taken bool) Outcome
	// Reset clears all predictor state, emulating a JIT recompilation that
	// moves every branch to a fresh address.
	Reset()
	// Name identifies the predictor configuration (for reports).
	Name() string
}

// ObserveEach observes branches from..n-1 of the direction stream bits —
// branch i is taken iff bit i%64 of bits[i/64] is set — through one Observe
// call each, in order, and returns how many were mispredicted, split by
// actual direction. It is the definition the batched forms
// (Saturating.ObserveBits, cpu.CondBranchBits) are held to, and the path of
// predictors that have no batched form.
func ObserveEach(p Predictor, site int, bits []uint64, from, n int) (mpTaken, mpNotTaken int) {
	for i := from; i < n; i++ {
		if out := p.Observe(site, bits[i>>6]>>(uint(i)&63)&1 == 1); out.Mispredicted() {
			if out.Taken {
				mpTaken++
			} else {
				mpNotTaken++
			}
		}
	}
	return mpTaken, mpNotTaken
}
