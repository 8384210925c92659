// Package core implements the paper's progressive optimization approach:
// search-space restriction from exact counter identities (§4.1), selectivity
// estimation by non-linear optimization of the counter cost models (§4.2),
// start-point generation (§4.3), the progressive re-optimization driver that
// wraps vectorized execution (§4.4, Figure 10), and the sortedness/join-order
// rules of §5.5-§5.6.
package core

import "fmt"

// Bounds restricts the per-predicate access counts ("branches not taken by
// predicate i", equivalently tuples qualifying predicates 1..i) of a
// multi-selection query, from three exact facts: the input cardinality, the
// output cardinality (2n - branchesTaken), and the sampled total number of
// branches not taken. Index i is the 0-based PEO position.
type Bounds struct {
	// TupsIn and TupsOut are the input/output cardinalities.
	TupsIn, TupsOut float64
	// BNT is the sampled total branches-not-taken.
	BNT float64
	// UpperTuple and LowerTuple are the cardinality-only bounds (Eq. 6, 7).
	UpperTuple, LowerTuple []float64
	// UpperBNT and LowerBNT are the tighter bounds using the sampled BNT
	// (Eq. 8, 9).
	UpperBNT, LowerBNT []float64
}

// Restrict computes the §4.1 bounds for a query with p predicates.
//
// The paper's Eq. (9) prints the divisor n-1; deriving the bound (maximize
// the accesses of the predicates before position i at tupsIn, fix the last
// at tupsOut, and spread the remaining BNT equally over positions i..n-2,
// of which position i is the largest) gives divisor n-p in the paper's
// 1-based indexing — which also reproduces the paper's own worked example
// ([67, 50, 10, 10] for accesses [80,70,50,10]); we implement that.
func Restrict(p int, tupsIn, tupsOut, bntSampled float64) (Bounds, error) {
	var b Bounds
	if err := b.restrict(p, tupsIn, tupsOut, bntSampled); err != nil {
		return Bounds{}, err
	}
	return b, nil
}

// restrict is Restrict into b, reusing b's slices when they are large enough
// (the estimator re-restricts the same Bounds once per decision).
func (b *Bounds) restrict(p int, tupsIn, tupsOut, bntSampled float64) error {
	if p <= 0 {
		return fmt.Errorf("core: non-positive predicate count %d", p)
	}
	if tupsIn <= 0 {
		return fmt.Errorf("core: non-positive input cardinality %v", tupsIn)
	}
	if tupsOut < 0 || tupsOut > tupsIn {
		return fmt.Errorf("core: output cardinality %v outside [0, %v]", tupsOut, tupsIn)
	}
	if bntSampled < 0 {
		return fmt.Errorf("core: negative sampled BNT %v", bntSampled)
	}
	b.TupsIn, b.TupsOut, b.BNT = tupsIn, tupsOut, bntSampled
	if cap(b.UpperTuple) < p {
		buf := make([]float64, 4*p)
		b.UpperTuple, b.LowerTuple = buf[0:p:p], buf[p:2*p:2*p]
		b.UpperBNT, b.LowerBNT = buf[2*p:3*p:3*p], buf[3*p:4*p]
	}
	b.UpperTuple, b.LowerTuple = b.UpperTuple[:p], b.LowerTuple[:p]
	b.UpperBNT, b.LowerBNT = b.UpperBNT[:p], b.LowerBNT[:p]
	for i := 0; i < p; i++ {
		// Eq. (6)/(7): only the last access count is pinned to the output.
		if i == p-1 {
			b.UpperTuple[i] = tupsOut
		} else {
			b.UpperTuple[i] = tupsIn
		}
		b.LowerTuple[i] = tupsOut

		if i == p-1 {
			b.UpperBNT[i] = tupsOut
			b.LowerBNT[i] = tupsOut
			continue
		}
		// Eq. (8): positions 0..i all take the same maximal value x while
		// later positions take tupsOut: (i+1)*x + (p-1-i)*tupsOut = BNT.
		up := (bntSampled - float64(float64(p-1-i)*tupsOut)) / float64(i+1)
		if up > tupsIn {
			up = tupsIn
		}
		if up < tupsOut {
			up = tupsOut
		}
		b.UpperBNT[i] = up

		// Eq. (9), corrected divisor: positions before i maxed at tupsIn,
		// last pinned at tupsOut, remainder spread over p-1-i positions of
		// which position i is the largest.
		lo := (bntSampled - tupsOut - float64(float64(i)*tupsIn)) / float64(p-1-i)
		if lo < tupsOut {
			lo = tupsOut
		}
		if lo > b.UpperBNT[i] {
			lo = b.UpperBNT[i]
		}
		b.LowerBNT[i] = lo
	}
	return nil
}

// productBounds converts the BNT access bounds into bounds on cumulative
// selectivity products x_i = accesses(i)/tupsIn, the space the estimator's
// non-linear optimization searches, into caller-provided slices of length p.
func (b Bounds) productBounds(lo, hi []float64) {
	for i := range b.UpperBNT {
		lo[i] = b.LowerBNT[i] / b.TupsIn
		hi[i] = b.UpperBNT[i] / b.TupsIn
	}
}

// Feasible reports whether a per-predicate access vector satisfies all
// bounds and monotonicity (each predicate passes at most as many tuples as
// the one before).
func (b Bounds) Feasible(accesses []float64) bool {
	if len(accesses) != len(b.UpperBNT) {
		return false
	}
	prev := b.TupsIn
	for i, a := range accesses {
		if a < b.LowerBNT[i]-1e-9 || a > b.UpperBNT[i]+1e-9 {
			return false
		}
		if a > prev+1e-9 {
			return false
		}
		prev = a
	}
	return true
}
