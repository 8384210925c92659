package exec

import "fmt"

// OpCounts records explicit per-operator counters maintained by the
// enumerator-based (invasive) instrumentation the paper compares against in
// §5.7: the compiled loop increments a memory counter after every operator
// evaluation and every pass, which is how one obtains individual
// selectivities without a PMU.
type OpCounts struct {
	// Evaluated counts tuples reaching each operator.
	Evaluated []int64
	// Passed counts tuples surviving each operator.
	Passed []int64
}

// Selectivities derives per-operator selectivities from the counts.
func (oc OpCounts) Selectivities() []float64 {
	out := make([]float64, len(oc.Evaluated))
	for i := range out {
		if oc.Evaluated[i] > 0 {
			out[i] = float64(oc.Passed[i]) / float64(oc.Evaluated[i])
		}
	}
	return out
}

// counterCostInstr is the per-increment cost of an explicit counter: a
// load-increment-store chain on a hot cache line.
const counterCostInstr = 3

// RunVectorInstrumented is RunVector with enumerator-based instrumentation:
// the loop body additionally maintains the explicit counters, paying
// counterCostInstr per maintained count — the overhead Figure 16 measures.
func (e *Engine) RunVectorInstrumented(q *Query, lo, hi int, oc *OpCounts) (VectorResult, error) {
	if err := e.checkVector(q, lo, hi); err != nil {
		return VectorResult{}, err
	}
	if oc == nil {
		return VectorResult{}, fmt.Errorf("exec: nil OpCounts")
	}
	if len(oc.Evaluated) != len(q.Ops) || len(oc.Passed) != len(q.Ops) {
		return VectorResult{}, fmt.Errorf("exec: OpCounts sized %d/%d for %d ops",
			len(oc.Evaluated), len(oc.Passed), len(q.Ops))
	}
	if e.skipVector(lo, hi) {
		return VectorResult{}, nil
	}
	c := e.cpu
	ops := q.Ops
	loopSite := len(ops)
	var res VectorResult
	for row := lo; row < hi; row++ {
		pass := true
		for si := 0; si < len(ops); si++ {
			ok := ops[si].Eval(c, row)
			oc.Evaluated[si]++
			c.Exec(counterCostInstr)
			if ok {
				oc.Passed[si]++
				c.Exec(counterCostInstr)
			}
			c.CondBranch(si, !ok)
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			if q.Agg != nil {
				for _, col := range q.Agg.Cols {
					c.Load(col.Addr(row))
				}
				c.Exec(q.Agg.cost())
				res.Sum += q.Agg.F(row)
			}
			res.Qualifying++
		}
		c.Exec(loopOverheadInstr)
		c.CondBranch(loopSite, true)
	}
	return res, nil
}

// RunInstrumented executes the whole table with enumerator instrumentation
// and returns totals plus the explicit counters.
func (e *Engine) RunInstrumented(q *Query) (Result, OpCounts, error) {
	oc := OpCounts{
		Evaluated: make([]int64, len(q.Ops)),
		Passed:    make([]int64, len(q.Ops)),
	}
	out, err := e.runTable(q, func(q *Query, lo, hi int) (VectorResult, error) {
		return e.RunVectorInstrumented(q, lo, hi, &oc)
	})
	if err != nil {
		return Result{}, OpCounts{}, err
	}
	return out, oc, nil
}
