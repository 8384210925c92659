package exec

import (
	"fmt"

	"progopt/internal/trace"
)

// maskCostInstr is the per-predicate cost of the branch-free combine: the
// comparison materialized as a flag plus the AND.
const maskCostInstr = 2

// RunVectorBranchFree executes rows [lo, hi) of a multi-predicate selection
// without data-dependent branches: every predicate is evaluated for every
// tuple and the outcomes are combined with logical AND into a 0/1 mask (Ross,
// "Selection conditions in main memory", TODS 2004 — reference [19] of the
// paper). It dispatches to the batch mask kernel or the scalar row loop per
// the engine mode.
//
// The trade-off against the branching scan of RunVector is the one the
// paper's §2.2.1 describes: branch-free evaluation retires more instructions
// and touches every predicate column unconditionally, but suffers no
// misprediction penalty. Around 50% selectivity, where the predictor
// mispredicts most, branch-free wins; at the extremes the branching scan's
// short-circuiting wins. The micro-adaptive driver (core package) chooses
// between the two implementations from estimated selectivities — the
// paper's related-work contrast with Vectorwise's micro adaptivity, driven
// here by counters instead of runtime trials.
//
// Only the loop branch remains, and it is perfectly predictable; operators
// must be Predicates (joins short-circuit by nature and stay branching).
func (e *Engine) RunVectorBranchFree(q *Query, lo, hi int) (VectorResult, error) {
	if err := e.checkVector(q, lo, hi); err != nil {
		return VectorResult{}, err
	}
	for i, op := range q.Ops {
		if _, ok := op.(*Predicate); !ok {
			return VectorResult{}, fmt.Errorf("exec: branch-free scan requires predicates only; op %d is %T", i, op)
		}
	}
	if e.skipVector(lo, hi) {
		if e.tr != nil {
			e.tr.Instant("skip", e.cpu.Cycles(), trace.Int("lo", lo), trace.Int("rows", hi-lo))
		}
		return VectorResult{}, nil
	}
	var t0 uint64
	if e.tr != nil {
		t0 = e.cpu.Cycles()
	}
	if !e.scalar {
		vr, err := e.runVectorBranchFreeBatch(q, lo, hi)
		if err == nil && e.tr != nil {
			e.tr.Span("vector", t0, e.cpu.Cycles(), trace.Int("lo", lo),
				trace.Int("rows", hi-lo), trace.Int64("qual", vr.Qualifying), trace.String("impl", "branch-free"))
		}
		return vr, err
	}
	c := e.cpu
	ops := q.Ops
	loopSite := len(ops)
	// The back-edge is the only branch of the predicated loop; with a
	// site-independent predictor it batches after the loop (see
	// runVectorScalar).
	deferEdge := c.SiteIndependentPredictor()
	var res VectorResult
	for row := lo; row < hi; row++ {
		pass := true
		for _, op := range ops {
			ok := op.Eval(c, row)
			c.Exec(maskCostInstr)
			pass = pass && ok
		}
		if pass {
			if q.Agg != nil {
				for _, col := range q.Agg.Cols {
					c.Load(col.Addr(row))
				}
				c.Exec(q.Agg.cost())
				res.Sum += q.Agg.F(row)
			}
			if r := e.sortRun; r != nil {
				for _, k := range r.s.Keys {
					c.Load(k.Col.Addr(row))
				}
				r.AddOne(c, row)
			}
			res.Qualifying++
		}
		if !deferEdge {
			c.Exec(loopOverheadInstr)
			// The only branch: the loop back-edge, always taken.
			c.CondBranch(loopSite, true)
		}
	}
	if deferEdge {
		c.Exec(loopOverheadInstr * (hi - lo))
		c.CondBranchN(loopSite, true, hi-lo)
	}
	if e.tr != nil {
		e.tr.Span("vector", t0, c.Cycles(), trace.Int("lo", lo),
			trace.Int("rows", hi-lo), trace.Int64("qual", res.Qualifying), trace.String("impl", "branch-free"))
	}
	return res, nil
}

// ScanImpl identifies a scan implementation: the micro-adaptive choice, and
// the instrumented loop an enumerator-driven optimization point runs.
type ScanImpl int

// Scan implementations.
const (
	// ImplBranching is the short-circuiting compiled loop of §2.1.
	ImplBranching ScanImpl = iota
	// ImplBranchFree is the predicated full-evaluation loop.
	ImplBranchFree
	// ImplInstrumented is the branching loop with enumerator instrumentation
	// (RunVectorInstrumented), counting into the engine's attached OpCounts.
	ImplInstrumented
)

// String names the implementation.
func (s ScanImpl) String() string {
	switch s {
	case ImplBranching:
		return "branching"
	case ImplBranchFree:
		return "branch-free"
	case ImplInstrumented:
		return "instrumented"
	}
	return fmt.Sprintf("impl(%d)", int(s))
}

// RunVectorImpl dispatches one vector to the chosen implementation.
func (e *Engine) RunVectorImpl(q *Query, lo, hi int, impl ScanImpl) (VectorResult, error) {
	switch impl {
	case ImplBranching:
		return e.RunVector(q, lo, hi)
	case ImplBranchFree:
		return e.RunVectorBranchFree(q, lo, hi)
	case ImplInstrumented:
		return e.RunVectorInstrumented(q, lo, hi, e.opCounts)
	default:
		return VectorResult{}, fmt.Errorf("exec: unknown scan implementation %d", int(impl))
	}
}

// BranchFreeEligible reports whether the query can run branch-free (all
// operators are plain predicates).
func BranchFreeEligible(q *Query) bool {
	for _, op := range q.Ops {
		if _, ok := op.(*Predicate); !ok {
			return false
		}
	}
	return true
}
