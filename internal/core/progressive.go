package core

import (
	"fmt"

	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Options configure the reoptimizer loop (§4.4, Figure 10).
type Options struct {
	// ReopInterval is the number of vectors between optimization cycles (the
	// paper sweeps 10, 75, 200). Zero disables re-optimization, reducing the
	// driver to the baseline execution pattern.
	ReopInterval int
	// DisableValidation skips the execute-and-compare step after a reorder
	// (ablation: Figure 13c's random data set relies on reverting).
	DisableValidation bool
	// DisablePredictorReset keeps branch-predictor state across reorders
	// (ablation; real JIT recompilation moves branch addresses).
	DisablePredictorReset bool
	// ExploreEvery enables the §4.5 correlation probe: after this many
	// consecutive optimization cycles that kept the same order, one step is
	// executed under an exploratory rotation of that order. Correlated
	// attributes make the estimator's independence assumption lie; actually
	// running a different PEO measures the truth, and validation keeps the
	// probe order only if it is genuinely faster. Zero disables probing.
	ExploreEvery int
	// Trace, when non-nil, receives the optimizer's decision events (samples,
	// reorders, reverts, exploration probes, implementation switches) with
	// the PMU evidence that triggered them. Recording is a pure observer: it
	// charges no simulated work, so traced and untraced runs are
	// bit-identical.
	Trace *trace.Track
}

// What the optimizer's own work costs the simulated CPU.
const (
	// sampleCostInstr is the instruction cost charged per PMU sample
	// (virtually free on real hardware).
	sampleCostInstr = 50
	// nmEvalCostInstr is the instruction cost charged per Nelder-Mead
	// objective evaluation, accounting for the optimizer's own CPU time.
	nmEvalCostInstr = 80
	// reorderCostInstr is charged per applied reorder, revert, probe or
	// implementation switch, on every core running the query: re-chaining
	// pre-compiled primitives, Vectorwise-style.
	reorderCostInstr = 2000
	// validationTolerance is the fractional cycle regression tolerated
	// before a reorder is reverted.
	validationTolerance = 0.02
)

// Stats reports what the reoptimizer loop did.
type Stats struct {
	// Workers is the number of simulated cores the run was scheduled on.
	Workers int
	// Blocks is the number of steps the loop coordinated: single vectors on
	// one core, morsel blocks on a pool.
	Blocks int
	// Vectors executed.
	Vectors int
	// Optimizations is the number of estimation cycles run.
	Optimizations int
	// Reorders is how many produced a changed order.
	Reorders int
	// Reverts is how many reorders validation rolled back.
	Reverts int
	// FinalOrder is the operator permutation (table-space indexes) in effect
	// at the end.
	FinalOrder []int
	// LastEstimate is the most recent selectivity estimate (current-order
	// space), nil before the first optimization.
	LastEstimate []float64
	// EstimatorEvaluations totals Nelder-Mead objective calls.
	EstimatorEvaluations int
	// Explorations counts §4.5 correlation probes issued.
	Explorations int
	// ConvergedAtCycles is the run's cycle clock at the end of the last step
	// in which the optimizer applied a change (reorder, revert, exploration,
	// or implementation choice): the cycles spent before the run settled on
	// its final plan. Zero means the initial order was never changed — the
	// signature of a feedback-cache warm start that began at the converged
	// order.
	ConvergedAtCycles uint64
	// Samples is the per-cycle observation series (bounded; see Sample): the
	// PMU evidence and selectivity estimate of every optimization cycle, in
	// order. The trace's optimizer track and the ext-* figures render the
	// same series.
	Samples []Sample
	// BranchingVectors and BranchFreeVectors count vectors per scan
	// implementation across all cores, and ImplSwitches the implementation
	// changes; all zero unless the run was micro-adaptive.
	BranchingVectors, BranchFreeVectors int
	ImplSwitches                        int
	// Ledger is what the run's adaptivity cost.
	Ledger

	// selsChunk is the storage keepSels carves retained estimates from.
	selsChunk []float64
}

// Ledger is the decision ledger of one adaptive run: where the cycles the
// reoptimizer loop added to the query clock went, read off facts the stepper
// holds anyway. SampleCycles, RecompileCycles and RevertedCycles are disjoint
// parts of the clock; RegretCycles is the part of RevertedCycles a step under
// the previous order would not have cost. What the loop can lose against never
// reordering is SampleCycles + RecompileCycles + RegretCycles.
type Ledger struct {
	// SampleCycles were charged to the coordinator for PMU samples and the
	// estimator's objective evaluations.
	SampleCycles uint64
	// RecompileCycles were charged for reorders, reverts, probes and
	// implementation switches: the makespan extension of each recompile.
	RecompileCycles uint64
	// RevertedCycles were spent in steps whose order validation then rolled
	// back.
	RevertedCycles uint64
	// RegretCycles is those steps' excess over the yardstick: the step the
	// rejected order was measured against, scaled to the same vector count.
	RegretCycles uint64
	// HeldOff counts the optimization points the back-off after a revert sat
	// out, uncharged.
	HeldOff int
}

// Add accumulates another run's ledger.
func (l *Ledger) Add(o Ledger) {
	l.SampleCycles += o.SampleCycles
	l.RecompileCycles += o.RecompileCycles
	l.RevertedCycles += o.RevertedCycles
	l.RegretCycles += o.RegretCycles
	l.HeldOff += o.HeldOff
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// compose maps a reorder expressed in current-order positions into
// table-space indexes: newPerm[i] = curPerm[order[i]].
func compose(curPerm, order []int) []int {
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = curPerm[o]
	}
	return out
}

// composesTo reports whether compose(curPerm, order) equals perm, without
// building the composition.
func composesTo(curPerm, order, perm []int) bool {
	if len(order) != len(perm) {
		return false
	}
	for i, o := range order {
		if curPerm[o] != perm[i] {
			return false
		}
	}
	return true
}

func opWidths(q *exec.Query) []int {
	w := make([]int, len(q.Ops))
	for i, op := range q.Ops {
		w[i] = op.Width()
	}
	return w
}

func aggColumnWidths(q *exec.Query) []int {
	if q.Agg == nil {
		return nil
	}
	w := make([]int, len(q.Agg.Cols))
	for i, col := range q.Agg.Cols {
		w[i] = col.Width()
	}
	return w
}

// VerifyIdentity sanity-checks the §2.2.1 branch identity on a PMU delta:
// qualifying == 2n - branchesTaken. It returns an error when the engine and
// driver disagree, which would indicate counter corruption.
func VerifyIdentity(delta pmu.Sample, n int, qualifying int64) error {
	got := 2*int64(n) - int64(delta.Get(pmu.BrTaken))
	if got != qualifying {
		return fmt.Errorf("core: branch identity violated: 2n-BT=%d, qualifying=%d", got, qualifying)
	}
	return nil
}
