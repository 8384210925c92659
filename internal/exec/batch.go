package exec

import (
	"fmt"
	"math"

	"progopt/internal/trace"
)

// This file implements the batch-kernel execution core: instead of the
// interpreted row loop of runVectorScalar (one Op.Eval interface call per
// operator per row), a vector is executed operator-at-a-time. Each operator's
// EvalBatch kernel consumes the survivors of the previous operator from a
// reusable selection vector and produces its own survivors, so per-row
// dispatch, bounds checks, and type switches are amortized over the whole
// vector. Every load, retired instruction, and branch outcome of the scalar
// loop is reproduced per (operator, row) pair — PMU event counts are
// preserved exactly; only the interleaving of accesses differs (op-major
// instead of row-major), which can shift cache hit levels and, on
// global-history predictors, misprediction attribution.

// maxBatchRow bounds table row ids representable in an int32 selection
// vector.
const maxBatchRow = math.MaxInt32

// ensureSel sizes the reusable selection buffers for an n-row vector.
func (e *Engine) ensureSel(n int) error {
	if n > maxBatchRow {
		return fmt.Errorf("exec: vector of %d rows exceeds int32 selection range", n)
	}
	if cap(e.selA) < n {
		e.selA = make([]int32, 0, n)
		e.selB = make([]int32, 0, n)
	}
	return nil
}

// batchSelect runs the operator pipeline over rows [lo, hi) and returns the
// qualifying selection vector (valid until the next batch call on e).
func (e *Engine) batchSelect(q *Query, lo, hi int) ([]int32, error) {
	if hi > maxBatchRow {
		return nil, fmt.Errorf("exec: row %d exceeds int32 selection range", hi)
	}
	if err := e.ensureSel(hi - lo); err != nil {
		return nil, err
	}
	cur := e.selA[:0]
	for r := lo; r < hi; r++ {
		cur = append(cur, int32(r))
	}
	next := e.selB
	c := e.cpu
	if !e.noFuse {
		if e.tr == nil {
			return fusedPipeline(c, q.Ops, cur, next), nil
		}
		inN := len(cur)
		t0 := c.Cycles()
		out := fusedPipeline(c, q.Ops, cur, next)
		e.tr.Span("fused-pipeline", t0, c.Cycles(),
			trace.Int("ops", len(q.Ops)), trace.Int("in", inN), trace.Int("out", len(out)))
		return out, nil
	}
	for si, op := range q.Ops {
		if len(cur) == 0 {
			// No survivors reach the remaining operators — the scalar loop
			// would not evaluate them either.
			break
		}
		if e.tr == nil {
			next = op.EvalBatch(c, si, cur, next[:0])
		} else {
			t0 := c.Cycles()
			next = op.EvalBatch(c, si, cur, next[:0])
			e.tr.Span(op.Name(), t0, c.Cycles(),
				trace.Int("in", len(cur)), trace.Int("out", len(next)))
		}
		cur, next = next, cur
	}
	return cur, nil
}

// runVectorBatch executes rows [lo, hi) as a kernel pipeline: operators over
// the selection vector, then the aggregate over the final survivors, then the
// per-row loop bookkeeping (charged in one batch, with the loop back-edge
// branch retired per row to keep predictor state faithful).
func (e *Engine) runVectorBatch(q *Query, lo, hi int) (VectorResult, error) {
	sel, err := e.batchSelect(q, lo, hi)
	if err != nil {
		return VectorResult{}, err
	}
	c := e.cpu
	var res VectorResult
	res.Qualifying = int64(len(sel))
	if q.Agg != nil && len(sel) > 0 {
		res.Sum = e.batchAggregate(q.Agg, sel)
	}
	e.batchSort(sel)
	n := hi - lo
	c.Exec(loopOverheadInstr * n)
	c.CondBranchN(len(q.Ops), true, n)
	return res, nil
}

// batchSort feeds one batch's survivors to the attached order-by collector:
// the key columns are gathered per selection and the vector's heap or
// run-buffer touches stream through the run protocol (see sort.go). Same
// loads and charges as the scalar loop's per-row form, batched.
func (e *Engine) batchSort(sel []int32) {
	r := e.sortRun
	if r == nil || len(sel) == 0 {
		return
	}
	for _, k := range r.s.Keys {
		e.cpu.LoadSel(k.Col.Base(), k.Col.Width(), sel)
	}
	r.Add(e.cpu, sel)
}

// batchAggregate sums the aggregate over the selection vector in ascending
// row order — the same accumulation order as the scalar loop, so the
// floating-point result is bit-identical.
func (e *Engine) batchAggregate(a *Aggregate, sel []int32) float64 {
	c := e.cpu
	for _, col := range a.Cols {
		c.LoadSel(col.Base(), col.Width(), sel)
	}
	sum := 0.0
	for _, r := range sel {
		sum += a.F(int(r))
	}
	c.Exec(a.cost() * len(sel))
	return sum
}

// runVectorBranchFreeBatch is the batch form of the branch-free scan: every
// predicate is evaluated for every row of the vector into a qualification
// mask (no data-dependent branches), then the aggregate runs over the set
// rows. Operators were validated as predicates by the caller.
func (e *Engine) runVectorBranchFreeBatch(q *Query, lo, hi int) (VectorResult, error) {
	if hi > maxBatchRow {
		return VectorResult{}, fmt.Errorf("exec: row %d exceeds int32 selection range", hi)
	}
	n := hi - lo
	if cap(e.mask) < n {
		e.mask = make([]bool, n)
	}
	mask := e.mask[:n]
	for i := range mask {
		mask[i] = true
	}
	c := e.cpu
	for _, op := range q.Ops {
		op.(*Predicate).evalMask(c, lo, hi, mask)
		c.Exec(maskCostInstr * n)
	}
	var res VectorResult
	if err := e.ensureSel(n); err != nil {
		return VectorResult{}, err
	}
	sel := e.selA[:0]
	for i, ok := range mask {
		if ok {
			sel = append(sel, int32(lo+i))
		}
	}
	res.Qualifying = int64(len(sel))
	if q.Agg != nil && len(sel) > 0 {
		res.Sum = e.batchAggregate(q.Agg, sel)
	}
	e.batchSort(sel)
	c.Exec(loopOverheadInstr * n)
	// The only branch: the loop back-edge, always taken.
	c.CondBranchN(len(q.Ops), true, n)
	return res, nil
}
