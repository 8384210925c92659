package core

import (
	"slices"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// BlockStepper holds the between-block coordination state of block-granular
// progressive (and micro-adaptive) execution: the current operator
// permutation, the pending validation against the previous block's
// per-vector cost, the selectivity estimation over merged per-core PMU
// deltas, and — in micro mode — the branching/branch-free implementation
// choice. It is the shared brain of RunParallelProgressive,
// RunParallelMicroAdaptive, and the workload service's scheduler, which
// drives the same coordination while the query runs on a *dynamic* subset of
// cores: the stepper never talks to the morsel scheduler, it only consumes
// finished BlockResults and tells the caller which query order and scan
// implementation the next block must run.
type BlockStepper struct {
	base *exec.Query
	opt  Options

	micro    bool
	eligible bool
	costP    ImplCostParams

	curPerm, prevPerm []int
	curQ              *exec.Query
	// curWidths and curWeights cache opWidths(curQ) and LoadWeights(curQ),
	// refreshed only when the order changes — the estimator and the ranking
	// consume them once per block.
	curWidths  []int
	curWeights []float64
	aggWidths  []int

	// estimator and the two vectors below are the decision step's scratch,
	// owned for the life of the run: order is the rank order of the current
	// estimate, ordered the estimate in that order.
	estimator Estimator
	order     []int
	ordered   []float64

	impl        exec.ScanImpl
	bfOptPoints int

	prevCostPerVec    float64
	pendingValidation bool
	// stableBlocks counts consecutive optimization epochs that confirmed the
	// current order (drives the §4.5 correlation probe at block granularity;
	// progressive mode only — the serial micro-adaptive driver has no probe
	// either, keeping worker counts decision-identical).
	stableBlocks int
	// rejected remembers the last order validation reverted, so neither the
	// estimator nor the probe proposes the measured regression again.
	rejected []int

	// accounted is the simulated cycle cost attributed to the query so far
	// (block makespans plus coordination), the clock ConvergedAtCycles is
	// stamped from.
	accounted uint64

	st ParallelMicroAdaptiveStats
}

// bfResampleEvery spaces the branching sampling blocks while running
// branch-free (the serial micro-adaptive driver's resampling policy at block
// granularity).
const bfResampleEvery = 3

// NewBlockStepper builds the coordination state for one query. prof supplies
// the cache geometry the estimator defaults to; workers is reported in the
// stats (the pool size the run is scheduled on). micro enables per-block
// implementation choice.
func NewBlockStepper(q *exec.Query, prof cpu.Profile, workers int, micro bool, opt Options) (*BlockStepper, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	if opt.Geometry.LineSize == 0 {
		hier := prof.Hierarchy
		opt.Geometry.LineSize = hier.L3.LineSize
		opt.Geometry.CapacityLines = hier.L3.Lines()
	}
	costP := DefaultImplCostParams()
	costP.Chain = opt.Chain
	nOps := len(q.Ops)
	s := &BlockStepper{
		base:     q,
		opt:      opt,
		micro:    micro,
		eligible: micro && exec.BranchFreeEligible(q),
		costP:    costP,
		curPerm:  identity(nOps),
		prevPerm: identity(nOps),
		curQ:     q,
		order:    make([]int, nOps),
		ordered:  make([]float64, nOps),

		aggWidths:      aggColumnWidths(q),
		impl:           exec.ImplBranching,
		prevCostPerVec: -1.0,
	}
	s.st.Workers = workers
	s.refreshOrderCaches()
	return s, nil
}

// setOrder makes perm the current operator order.
func (s *BlockStepper) setOrder(perm []int) error {
	q, err := s.base.WithOrder(perm)
	if err != nil {
		return err
	}
	s.curPerm, s.curQ = perm, q
	s.refreshOrderCaches()
	return nil
}

func (s *BlockStepper) refreshOrderCaches() {
	s.curWidths = opWidths(s.curQ)
	s.curWeights = LoadWeights(s.curQ)
}

// Query returns the query in its current operator order; the next block must
// execute it.
func (s *BlockStepper) Query() *exec.Query { return s.curQ }

// Impl returns the scan implementation the next block must run
// (ImplBranching unless a micro stepper chose predication).
func (s *BlockStepper) Impl() exec.ScanImpl { return s.impl }

// SetImpl overrides the initial scan implementation (feedback-cache warm
// start). Only meaningful before the first block of a micro stepper.
func (s *BlockStepper) SetImpl(impl exec.ScanImpl) {
	if s.micro && s.eligible {
		s.impl = impl
	}
}

// BlockVectors returns how many vectors the next optimization block spans on
// k cores (ReopInterval per core), or 0 when re-optimization is disabled.
func (s *BlockStepper) BlockVectors(k int) int {
	if s.opt.ReopInterval <= 0 {
		return 0
	}
	return s.opt.ReopInterval * k
}

// AfterBlock runs the coordination that follows one finished morsel block:
// validate the previous reorder against the block's per-vector cost (revert
// on regression), and — unless the block was the query's last — sample the
// merged counters, estimate selectivities, reorder by ascending estimate,
// and in micro mode choose the next block's scan implementation. tuples is
// the number of driving-table tuples the block covered. coord is the core
// the estimation runs on (the others idle at the block barrier); engines are
// the cores currently executing the query, each of which pays the recompile
// of a reorder or implementation switch. The returned cycles are the
// makespan extension of the coordination; the caller adds them to the
// query's clock.
func (s *BlockStepper) AfterBlock(br exec.BlockResult, tuples int, last bool, coord *cpu.CPU, engines []*exec.Engine) (uint64, error) {
	s.st.Blocks++
	if s.micro {
		if s.impl == exec.ImplBranchFree {
			s.st.BranchFreeVectors += br.Vectors
		} else {
			s.st.BranchingVectors += br.Vectors
		}
	}
	s.accounted += br.MaxCycles
	changed := false
	var extra uint64
	costPerVec := float64(br.MaxCycles) / float64(br.Vectors)

	if s.pendingValidation && !s.opt.DisableValidation {
		s.pendingValidation = false
		if s.prevCostPerVec > 0 && costPerVec > s.prevCostPerVec*(1+s.opt.ValidationTolerance) {
			// Deteriorated: re-establish the previous order on every core and
			// remember the rejected one so it is not proposed again.
			s.rejected = s.curPerm
			if err := s.setOrder(s.prevPerm); err != nil {
				return 0, err
			}
			extra += recompileEngines(engines, s.opt)
			s.st.Reverts++
			changed = true
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "revert", s.accounted+extra, br.Counters,
					trace.A("to", s.curPerm),
					trace.A("cost_per_vec", costPerVec),
					trace.A("prev_cost_per_vec", s.prevCostPerVec))
			}
		}
	}

	runOpt := s.opt.ReopInterval > 0 && !last
	if runOpt && !s.micro && s.opt.ExploreEvery > 0 && s.stableBlocks >= s.opt.ExploreEvery {
		// §4.5 correlation probe at block granularity: the estimator has
		// confirmed the same order ExploreEvery epochs in a row; run the next
		// block under a rotation of the current order and let validation
		// decide. A rotation validation already rejected is skipped and the
		// epoch falls through to plain estimation.
		if probe := rotate(s.curPerm); !equalPerm(probe, s.rejected) {
			s.stableBlocks = 0
			s.st.Explorations++
			s.prevPerm = s.curPerm
			if err := s.setOrder(probe); err != nil {
				return 0, err
			}
			extra += recompileEngines(engines, s.opt)
			s.pendingValidation = true
			changed = true
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "explore", s.accounted+extra, br.Counters,
					trace.A("from", s.prevPerm), trace.A("to", s.curPerm))
			}
			s.prevCostPerVec = costPerVec
			s.accounted += extra
			s.st.ConvergedAtCycles = s.accounted
			return extra, nil
		}
	}
	if runOpt && s.impl == exec.ImplBranching {
		// Estimation epoch on the coordinator core.
		c0 := coord.Cycles()
		coord.Exec(s.opt.SampleCostInstr)
		sample := SampleFromPMU(br.Counters, tuples)
		cfg := EstimatorConfig{
			Widths:    s.curWidths,
			AggWidths: s.aggWidths,
			Geometry:  s.opt.Geometry,
			Chain:     s.opt.Chain,
			MaxStarts: s.opt.MaxStartsOverride,
		}
		est, err := s.estimator.Estimate(sample, cfg)
		if err != nil {
			return 0, err
		}
		est.Sels = s.st.keepSels(est.Sels)
		s.st.Optimizations++
		s.st.EstimatorEvaluations += est.NMEvaluations
		s.st.LastEstimate = est.Sels
		coord.Exec(est.NMEvaluations * s.opt.NMEvalCostInstr)
		extra += coord.Cycles() - c0
		smp := Sample{
			Cycles:   s.accounted + extra,
			Tuples:   tuples,
			Counters: br.Counters.Project(paperGroup),
			Sels:     est.Sels,
		}
		s.st.addSample(smp)
		traceSample(s.opt.Trace, s.accounted+extra, smp)

		order := rankOrder(s.order, s.curWeights, est.Sels)
		if !composesTo(s.curPerm, order, s.curPerm) && !composesTo(s.curPerm, order, s.rejected) {
			s.stableBlocks = 0
			s.prevPerm = s.curPerm
			if err := s.setOrder(compose(s.curPerm, order)); err != nil {
				return 0, err
			}
			extra += recompileEngines(engines, s.opt)
			s.st.Reorders++
			s.pendingValidation = true
			changed = true
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "reorder", s.accounted+extra, smp.Counters,
					trace.A("from", s.prevPerm), trace.A("to", s.curPerm),
					trace.A("est_sels", est.Sels))
			}
		} else {
			s.stableBlocks++
		}
		if s.eligible {
			for i, o := range order {
				s.ordered[i] = est.Sels[o]
			}
			next := ChooseImpl(s.ordered, s.costP)
			if next != s.impl {
				s.st.ImplSwitches++
				s.impl = next
				extra += recompileEngines(engines, s.opt)
				changed = true
				if s.opt.Trace != nil {
					// The event retains its arguments; s.ordered is reused.
					traceDecision(s.opt.Trace, "impl-switch", s.accounted+extra, smp.Counters,
						trace.A("impl", implName(s.impl)),
						trace.A("est_sels", slices.Clone(s.ordered)))
				}
			}
		}
	} else if runOpt && s.impl == exec.ImplBranchFree {
		// Branch-free blocks carry no per-predicate branch signal; return to
		// the branching scan for one sampling block every few points.
		s.bfOptPoints++
		if s.bfOptPoints >= bfResampleEvery {
			s.bfOptPoints = 0
			s.st.ImplSwitches++
			s.impl = exec.ImplBranching
			extra += recompileEngines(engines, s.opt)
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "impl-switch", s.accounted+extra, br.Counters,
					trace.A("impl", implName(s.impl)),
					trace.A("resample", true))
			}
		}
	}
	s.prevCostPerVec = costPerVec
	s.accounted += extra
	if changed {
		s.st.ConvergedAtCycles = s.accounted
	}
	return extra, nil
}

// TraceFinal emits the plan-final event on the stepper's decision track (if
// any), stamped with the accounted query clock. Callers invoke it once, when
// the query's last block has been coordinated.
func (s *BlockStepper) TraceFinal() {
	if s.opt.Trace == nil {
		return
	}
	s.opt.Trace.Instant("plan-final", s.accounted,
		trace.A("order", s.curPerm), trace.A("reorders", s.st.Reorders),
		trace.A("impl", implName(s.impl)),
		trace.A("converged_at", s.st.ConvergedAtCycles))
}

// Stats snapshots the coordination telemetry; FinalOrder is the permutation
// currently in effect (relative to the stepper's base query).
func (s *BlockStepper) Stats() ParallelMicroAdaptiveStats {
	st := s.st
	st.FinalOrder = append([]int(nil), s.curPerm...)
	return st
}

// recompileEngines re-JITs the scan loop on every given core (new branch
// addresses, re-chained primitives) and returns the resulting makespan
// extension: the largest per-core cycle delta of the recompile.
func recompileEngines(engines []*exec.Engine, opt Options) uint64 {
	var max uint64
	for _, e := range engines {
		c := e.CPU()
		c0 := c.Cycles()
		if !opt.DisablePredictorReset {
			c.ResetPredictor()
		}
		c.Exec(opt.ReorderCostInstr)
		if d := c.Cycles() - c0; d > max {
			max = d
		}
	}
	return max
}
