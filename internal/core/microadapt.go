package core

import (
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/exec"
	"progopt/internal/trace"
)

// ImplCostParams parameterize the branching-vs-branch-free decision.
type ImplCostParams struct {
	// MPPenaltyCycles is the misprediction flush cost of the core.
	MPPenaltyCycles float64
	// EvalInstr is the instruction cost of one predicate evaluation
	// (load + compare) and MaskInstr the extra combine cost of the
	// branch-free form; BranchInstr the cmp+jcc of the branching form.
	EvalInstr, MaskInstr, BranchInstr float64
	// IssueWidth converts instructions to cycles.
	IssueWidth float64
	// Chain models the predictor for the branching form's mispredictions.
	Chain markov.Chain
	// Geometry models the cache for the memory term; Widths are the
	// predicate column widths in evaluation order (default 8 each).
	Geometry cachemodel.Geometry
	Widths   []int
	// SeqLineStall is the cycles per sequentially streamed (prefetched)
	// line; RandomLineStall per conditional-read line the streamer misses.
	// The asymmetry is the paper's §3.1 point: skipping tuples does not
	// proportionally skip memory cost.
	SeqLineStall, RandomLineStall float64
}

// DefaultImplCostParams matches the simulated ScaledXeon core and the
// engine's instruction accounting.
func DefaultImplCostParams() ImplCostParams {
	return ImplCostParams{
		MPPenaltyCycles: 15,
		EvalInstr:       1, // the load
		MaskInstr:       2,
		BranchInstr:     2,
		IssueWidth:      4,
		Chain:           markov.Paper(),
		Geometry:        cachemodel.MustGeometry(64, 16384),
		SeqLineStall:    2,
		RandomLineStall: 25,
	}
}

// ChooseImpl picks the cheaper scan implementation for one vector given the
// estimated per-predicate selectivities (in evaluation order), per tuple:
//
//	branching:   (eval+branch) instructions for reached predicates,
//	             misprediction penalties from the chain model, and the
//	             conditional-read memory cost (random misses weighted by
//	             RandomLineStall — the §3.1 double-counting effect)
//	branch-free: every predicate evaluated and every column fully streamed,
//	             but no mispredictions and purely sequential memory
//
// This is micro adaptivity (Răducanu et al., the paper's related work)
// driven by the counter-estimated selectivities instead of runtime trials:
// no alternative implementation ever needs to be executed to be costed.
func ChooseImpl(sels []float64, p ImplCostParams) exec.ScanImpl {
	if len(sels) == 0 {
		return exec.ImplBranching
	}
	// Per-tuple costing over a nominal vector.
	const n = 4096
	branching, branchFree := 0.0, 0.0
	reach := 1.0
	for i, s := range sels {
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		width := 8
		if i < len(p.Widths) && p.Widths[i] > 0 {
			width = p.Widths[i]
		}
		branching += reach * (p.EvalInstr + p.BranchInstr) / p.IssueWidth
		branching += reach * p.Chain.Predict(s).MP() * p.MPPenaltyCycles
		cr := p.Geometry.CondReadAccesses(n, width, reach)
		branching += (cr.Touched*p.SeqLineStall + cr.Random*p.RandomLineStall) / n

		branchFree += (p.EvalInstr + p.MaskInstr) / p.IssueWidth
		branchFree += p.Geometry.Lines(n, width) * p.SeqLineStall / n
		reach *= s
	}
	if branchFree < branching {
		return exec.ImplBranchFree
	}
	return exec.ImplBranching
}

// MicroAdaptiveStats extends Stats with the implementation decisions.
type MicroAdaptiveStats struct {
	Stats
	// BranchingVectors and BranchFreeVectors count vectors per
	// implementation.
	BranchingVectors, BranchFreeVectors int
	// ImplSwitches counts implementation changes.
	ImplSwitches int
}

// RunMicroAdaptive is RunProgressive extended with per-cycle implementation
// choice: after each selectivity estimation it also decides whether the next
// vectors run the branching or the branch-free scan. Queries containing
// non-predicate operators always run branching.
func RunMicroAdaptive(e *exec.Engine, q *exec.Query, opt Options) (exec.Result, MicroAdaptiveStats, error) {
	if err := q.Validate(); err != nil {
		return exec.Result{}, MicroAdaptiveStats{}, err
	}
	opt.setDefaults()
	c := e.CPU()
	eligible := exec.BranchFreeEligible(q)
	costP := DefaultImplCostParams()
	costP.Chain = opt.Chain

	nOps := len(q.Ops)
	curPerm := identity(nOps)
	prevPerm := identity(nOps)
	curQ := q
	impl := exec.ImplBranching
	// resampleEvery spaces the sampling windows while running branch-free:
	// return to the (counter-observable) branching scan only every Nth
	// optimization point, keeping most vectors on the cheaper
	// implementation.
	const resampleEvery = 3
	bfOptPoints := 0

	start := c.Sample()
	startCycles := c.Cycles()
	var out exec.Result
	var st MicroAdaptiveStats

	n := q.Table.NumRows()
	vs := e.VectorSize()
	numVectors := (n + vs - 1) / vs

	var prevVecCycles uint64
	pendingValidation := false
	// rejected remembers the last order validation reverted (see
	// RunProgressive); the estimator's output is ignored while it equals it.
	var rejected []int
	if opt.Geometry.LineSize == 0 {
		hier := c.Profile().Hierarchy
		opt.Geometry.LineSize = hier.L3.LineSize
		opt.Geometry.CapacityLines = hier.L3.Lines()
	}
	aggWidths := aggColumnWidths(q)
	var estimator Estimator

	vec := 0
	for lo := 0; lo < n; lo += vs {
		hi := lo + vs
		if hi > n {
			hi = n
		}
		s0 := c.Sample()
		c0 := c.Cycles()
		vr, err := e.RunVectorImpl(curQ, lo, hi, impl)
		if err != nil {
			return exec.Result{}, MicroAdaptiveStats{}, err
		}
		if impl == exec.ImplBranchFree {
			st.BranchFreeVectors++
		} else {
			st.BranchingVectors++
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
				rejected, curPerm = curPerm, prevPerm
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, MicroAdaptiveStats{}, err
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
		// Estimation requires the branching scan's counters (branch-free
		// vectors carry no per-predicate branch signal); sample only then.
		if runOpt && impl == exec.ImplBranching {
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
				return exec.Result{}, MicroAdaptiveStats{}, err
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
				prevPerm, curPerm = curPerm, newPerm
				curQ, err = q.WithOrder(curPerm)
				if err != nil {
					return exec.Result{}, MicroAdaptiveStats{}, err
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
			}
			if eligible {
				ordered := make([]float64, len(est.Sels))
				for i, o := range order {
					ordered[i] = est.Sels[o]
				}
				next := ChooseImpl(ordered, costP)
				if next != impl {
					st.ImplSwitches++
					impl = next
					if !opt.DisablePredictorReset {
						c.ResetPredictor()
					}
					c.Exec(opt.ReorderCostInstr)
					st.ConvergedAtCycles = c.Cycles() - startCycles
					if opt.Trace != nil {
						traceDecision(opt.Trace, "impl-switch", c.Cycles(), smp.Counters,
							trace.A("impl", implName(impl)),
							trace.A("est_sels", ordered))
					}
				}
			}
		} else if runOpt && impl == exec.ImplBranchFree {
			// Periodically return to the branching scan for one sampling
			// window so selectivity drift remains observable — but only
			// every resampleEvery optimization points, so the branch-free
			// savings are not squandered on sampling.
			bfOptPoints++
			if bfOptPoints >= resampleEvery {
				bfOptPoints = 0
				st.ImplSwitches++
				impl = exec.ImplBranching
				if !opt.DisablePredictorReset {
					c.ResetPredictor()
				}
				c.Exec(opt.ReorderCostInstr)
				if opt.Trace != nil {
					traceDecision(opt.Trace, "impl-switch", c.Cycles(), delta,
						trace.A("impl", implName(impl)),
						trace.A("resample", true))
				}
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
			trace.A("impl", implName(impl)),
			trace.A("converged_at", st.ConvergedAtCycles))
	}
	return out, st, nil
}

// implName renders a scan implementation for trace args.
func implName(impl exec.ScanImpl) string {
	if impl == exec.ImplBranchFree {
		return "branch-free"
	}
	return "branching"
}
