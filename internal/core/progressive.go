package core

import (
	"fmt"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Options configure the progressive optimization driver (§4.4, Figure 10).
type Options struct {
	// ReopInterval is the number of vectors between optimization cycles (the
	// paper sweeps 10, 75, 200). Zero disables re-optimization, reducing the
	// driver to the baseline execution pattern.
	ReopInterval int
	// Chain overrides the branch model (default: the paper's 6-state chain).
	Chain markov.Chain
	// Geometry overrides the cache model (default: derived from the engine's
	// CPU profile).
	Geometry cachemodel.Geometry
	// DisableValidation skips the execute-and-compare step after a reorder
	// (ablation: Figure 13c's random data set relies on reverting).
	DisableValidation bool
	// DisablePredictorReset keeps branch-predictor state across reorders
	// (ablation; real JIT recompilation moves branch addresses).
	DisablePredictorReset bool
	// SampleCostInstr is the instruction cost charged per PMU sample
	// (virtually free on real hardware; default 50).
	SampleCostInstr int
	// NMEvalCostInstr is the instruction cost charged per Nelder-Mead
	// objective evaluation, accounting for the optimizer's own CPU time
	// (default 80).
	NMEvalCostInstr int
	// ReorderCostInstr is charged per applied reorder: re-chaining
	// pre-compiled primitives, Vectorwise-style (default 2000).
	ReorderCostInstr int
	// ValidationTolerance is the fractional cycle regression tolerated
	// before reverting (default 0.02).
	ValidationTolerance float64
	// MaxStartsOverride overrides the estimator's start budget (0 keeps the
	// paper's m = 2p).
	MaxStartsOverride int
	// ExploreEvery enables the §4.5 correlation probe: after this many
	// consecutive optimization cycles that kept the same order, one vector
	// is executed under an exploratory rotation of that order. Correlated
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

func (o *Options) setDefaults() {
	if o.SampleCostInstr <= 0 {
		o.SampleCostInstr = 50
	}
	if o.NMEvalCostInstr <= 0 {
		o.NMEvalCostInstr = 80
	}
	if o.ReorderCostInstr <= 0 {
		o.ReorderCostInstr = 2000
	}
	if o.ValidationTolerance <= 0 {
		o.ValidationTolerance = 0.02
	}
	if o.Chain.States() == 0 {
		o.Chain = markov.Paper()
	}
}

// Stats reports what the progressive driver did.
type Stats struct {
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
	// ConvergedAtCycles is the run's cycle clock at the last change the
	// optimizer applied (reorder, revert, exploration, or implementation
	// switch): the cycles spent before the run settled on its final plan.
	// Zero means the initial order was never changed — the signature of a
	// feedback-cache warm start that began at the converged order.
	ConvergedAtCycles uint64
	// Samples is the per-cycle observation series (bounded; see Sample): the
	// PMU evidence and selectivity estimate of every optimization cycle, in
	// order. The trace's optimizer track and the ext-* figures render the
	// same series.
	Samples []Sample

	// selsChunk is the storage keepSels carves retained estimates from.
	selsChunk []float64
}

// RunProgressive executes the query vector-at-a-time with progressive
// re-optimization: every ReopInterval vectors it samples the PMU delta of
// the last vector, estimates per-operator selectivities, reorders operators
// by ascending rank (per-row load weight over estimated drop rate — plain
// ascending selectivity for all-predicate plans; see RankOrder), then
// validates the new order against the next vector and reverts on regression
// (§4.4).
//
// The returned result's counters and cycles include the sampling,
// estimation, and reordering overhead, charged to the simulated CPU.
func RunProgressive(e *exec.Engine, q *exec.Query, opt Options) (exec.Result, Stats, error) {
	if err := q.Validate(); err != nil {
		return exec.Result{}, Stats{}, err
	}
	opt.setDefaults()
	c := e.CPU()
	if opt.Geometry.LineSize == 0 {
		hier := c.Profile().Hierarchy
		opt.Geometry = cachemodel.Geometry{
			LineSize:      hier.L3.LineSize,
			CapacityLines: hier.L3.Lines(),
		}
	}

	nOps := len(q.Ops)
	curPerm := identity(nOps)
	prevPerm := identity(nOps)
	curQ := q
	aggWidths := aggColumnWidths(q)
	var estimator Estimator

	start := c.Sample()
	startCycles := c.Cycles()
	var out exec.Result
	var st Stats

	n := q.Table.NumRows()
	vs := e.VectorSize()
	numVectors := (n + vs - 1) / vs

	var prevVecCycles uint64
	pendingValidation := false
	// stableCycles counts consecutive optimization cycles that confirmed the
	// current order (drives the §4.5 correlation probe).
	stableCycles := 0
	// rejected remembers the last order validation reverted: proposing it
	// again would just repeat the measured regression, so the estimator's
	// (and the probe's) output is ignored while it equals this order. Only a
	// revert overwrites it, so a genuinely changed estimate still reorders.
	var rejected []int

	vec := 0
	for lo := 0; lo < n; lo += vs {
		hi := lo + vs
		if hi > n {
			hi = n
		}
		s0 := c.Sample()
		c0 := c.Cycles()
		vr, err := e.RunVector(curQ, lo, hi)
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		out.Qualifying += vr.Qualifying
		out.Sum += vr.Sum
		out.Vectors++
		vecCycles := c.Cycles() - c0
		delta := c.Sample().Sub(s0)
		vec++

		if pendingValidation && !opt.DisableValidation {
			pendingValidation = false
			limit := float64(prevVecCycles) * (1 + opt.ValidationTolerance)
			if float64(vecCycles) > limit && (hi-lo) == vs {
				// Deteriorated: re-establish the previous order and remember
				// the rejected one so it is not proposed again.
				rejected, curPerm = curPerm, prevPerm
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, Stats{}, err
				}
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(opt.ReorderCostInstr)
				st.Reverts++
				st.ConvergedAtCycles = c.Cycles() - startCycles
				if opt.Trace != nil {
					traceDecision(opt.Trace, "revert", c.Cycles(), delta,
						trace.A("to", curPerm),
						trace.A("vec_cycles", vecCycles), trace.A("limit", limit))
				}
			}
		}

		runOpt := opt.ReopInterval > 0 && vec%opt.ReopInterval == 0 && vec < numVectors
		if runOpt && opt.ExploreEvery > 0 && stableCycles >= opt.ExploreEvery {
			// §4.5 correlation probe: the estimator has confirmed the same
			// order ExploreEvery times in a row; its independence assumption
			// might be hiding a better order. Execute the next vector under
			// a rotation of the current order and let validation decide.
			// (A rotation that validation already rejected is skipped — the
			// cycle falls through to plain estimation instead.)
			if probe := rotate(curPerm); !equalPerm(probe, rejected) {
				stableCycles = 0
				st.Explorations++
				prevPerm, curPerm = curPerm, probe
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, Stats{}, err
				}
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(opt.ReorderCostInstr)
				pendingValidation = true
				st.ConvergedAtCycles = c.Cycles() - startCycles
				if opt.Trace != nil {
					traceDecision(opt.Trace, "explore", c.Cycles(), delta,
						trace.A("from", prevPerm), trace.A("to", curPerm))
				}
				prevVecCycles = vecCycles
				continue
			}
		}
		if runOpt {
			c.Exec(opt.SampleCostInstr)
			sample := SampleFromPMU(delta, hi-lo)
			cfg := EstimatorConfig{
				Widths:    opWidths(curQ),
				AggWidths: aggWidths,
				Geometry:  opt.Geometry,
				Chain:     opt.Chain,
				MaxStarts: opt.MaxStartsOverride,
			}
			est, err := estimator.Estimate(sample, cfg)
			if err != nil {
				return exec.Result{}, Stats{}, err
			}
			est.Sels = st.keepSels(est.Sels)
			st.Optimizations++
			st.EstimatorEvaluations += est.NMEvaluations
			st.LastEstimate = est.Sels
			c.Exec(est.NMEvaluations * opt.NMEvalCostInstr)
			smp := Sample{
				Cycles:   c.Cycles() - startCycles,
				Tuples:   hi - lo,
				Counters: delta.Project(paperGroup),
				Sels:     est.Sels,
			}
			st.addSample(smp)
			traceSample(opt.Trace, c.Cycles(), smp)
			order := RankOrder(LoadWeights(curQ), est.Sels)
			newPerm := compose(curPerm, order)
			if !equalPerm(newPerm, curPerm) && !equalPerm(newPerm, rejected) {
				stableCycles = 0
				prevPerm, curPerm = curPerm, newPerm
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, Stats{}, err
				}
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(opt.ReorderCostInstr)
				st.Reorders++
				pendingValidation = true
				st.ConvergedAtCycles = c.Cycles() - startCycles
				if opt.Trace != nil {
					traceDecision(opt.Trace, "reorder", c.Cycles(), smp.Counters,
						trace.A("from", prevPerm), trace.A("to", curPerm),
						trace.A("est_sels", est.Sels))
				}
			} else {
				stableCycles++
			}
		}
		prevVecCycles = vecCycles
	}

	out.Cycles = c.Cycles() - startCycles
	out.Millis = c.MillisOf(out.Cycles)
	out.Counters = c.Sample().Sub(start)
	st.Vectors = out.Vectors
	st.FinalOrder = curPerm
	if opt.Trace != nil {
		opt.Trace.Instant("plan-final", c.Cycles(),
			trace.A("order", curPerm), trace.A("reorders", st.Reorders),
			trace.A("converged_at", st.ConvergedAtCycles))
	}
	return out, st, nil
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// rotate returns the §4.5 exploration rotation of a permutation: the leading
// operator moves to the back.
func rotate(p []int) []int {
	out := append([]int(nil), p[1:]...)
	return append(out, p[0])
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

func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
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
