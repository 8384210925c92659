package core

import (
	"slices"

	"progopt/internal/exec"
)

// RunProgressiveEnumerated is the §5.7 comparator as a complete system: a
// progressive optimizer driven by enumerator-based instrumentation instead
// of performance counters. Every ReopInterval vectors it executes ONE vector
// through the instrumented loop — explicit counter increments after every
// predicate evaluation — which yields the exact conditional selectivities of
// the current order, then reorders ascending and validates like the PMU
// driver.
//
// The paper's argument reproduced end-to-end: the enumerated sample vector
// costs ~1.5x a plain vector (Figure 16), so the approach pays a real
// runtime tax each optimization cycle and requires maintaining a second,
// instrumented implementation of every operator — whereas the PMU driver's
// sampling is free and works on unmodified (even black-box) operators.
func RunProgressiveEnumerated(e *exec.Engine, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	if err := q.Validate(); err != nil {
		return exec.Result{}, Stats{}, err
	}
	opt.setDefaults()
	c := e.CPU()

	nOps := len(q.Ops)
	curPerm := identity(nOps)
	prevPerm := identity(nOps)
	curQ := q

	start := c.Sample()
	startCycles := c.Cycles()
	var out exec.Result
	var st Stats

	n := q.Table.NumRows()
	vs := e.VectorSize()
	numVectors := (n + vs - 1) / vs

	var prevVecCycles uint64
	pendingValidation := false

	vec := 0
	for lo := 0; lo < n; lo += vs {
		hi := lo + vs
		if hi > n {
			hi = n
		}
		c0 := c.Cycles()
		sampleThis := opt.ReopInterval > 0 && (vec+1)%opt.ReopInterval == 0 && vec+1 < numVectors

		var sels []float64
		if sampleThis {
			// The instrumented implementation of the loop.
			oc := &exec.OpCounts{
				Evaluated: make([]int64, len(curQ.Ops)),
				Passed:    make([]int64, len(curQ.Ops)),
			}
			vr, err := e.RunVectorInstrumented(curQ, lo, hi, oc)
			if err != nil {
				return exec.Result{}, Stats{}, err
			}
			out.Qualifying += vr.Qualifying
			out.Sum += vr.Sum
			sels = oc.Selectivities()
		} else {
			vr, err := e.RunVector(curQ, lo, hi)
			if err != nil {
				return exec.Result{}, Stats{}, err
			}
			out.Qualifying += vr.Qualifying
			out.Sum += vr.Sum
		}
		out.Vectors++
		vecCycles := c.Cycles() - c0
		vec++

		if pendingValidation && !opt.DisableValidation {
			pendingValidation = false
			limit := float64(prevVecCycles) * (1 + validationTolerance)
			if float64(vecCycles) > limit && (hi-lo) == vs {
				curPerm = append([]int(nil), prevPerm...)
				var err error
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, Stats{}, err
				}
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(reorderCostInstr)
				st.Reverts++
			}
		}

		if sels != nil {
			st.Optimizations++
			st.LastEstimate = sels
			order := AscendingOrder(sels)
			newPerm := compose(curPerm, order)
			if !slices.Equal(newPerm, curPerm) {
				prevPerm = append([]int(nil), curPerm...)
				curPerm = newPerm
				var err error
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, Stats{}, err
				}
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(reorderCostInstr)
				st.Reorders++
				pendingValidation = true
			}
		}
		prevVecCycles = vecCycles
	}

	out.Cycles = c.Cycles() - startCycles
	out.Millis = c.MillisOf(out.Cycles)
	out.Counters = c.Sample().Sub(start)
	st.Vectors = out.Vectors
	st.FinalOrder = curPerm
	return out, st, nil
}
