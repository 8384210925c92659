package core

import (
	"slices"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// BlockStepper is the reoptimizer loop (§4.4, Figure 10): the state carried
// between the steps of one progressive or micro-adaptive query — the current
// operator permutation, the pending validation against the previous step's
// per-vector cost, the selectivity estimation over the step's (merged
// per-core) PMU delta, and — in micro mode — the branching/branch-free
// implementation choice. Run.Step is its one caller: it steps it one morsel
// block at a time — one vector on a pool of one core — on whatever subset of
// cores the step was given. The stepper never executes anything: it consumes
// finished BlockResults and tells the driver which query order and scan
// implementation the next step must run.
type BlockStepper struct {
	base *exec.Query
	opt  Options

	micro    bool
	eligible bool
	// geometry is the L3 of the profile the run is scheduled on, the cache
	// the estimator models.
	geometry cachemodel.Geometry

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
	// stableBlocks counts consecutive optimization points that confirmed the
	// current order (drives the §4.5 correlation probe; progressive mode
	// only).
	stableBlocks int
	// rejected is the set of orders validation rolled back since the last
	// reorder that survived it: neither the estimator nor the probe proposes
	// a measured regression again until the data has moved. backoff counts
	// the reverts in a row and holdoff the optimization points still to sit
	// out because of them (2^backoff - 1 after each revert). heldQual of
	// heldTuples is what the last reverted step qualified: the share a later
	// step is held against to tell that the data has moved.
	rejected         [][]int
	backoff, holdoff int
	heldQual         int64
	heldTuples       int

	// accounted is the simulated cycle cost attributed to the query so far
	// (step makespans plus coordination), the clock ConvergedAtCycles,
	// Sample.Cycles and decision events are stamped from. On a pool of one
	// core it equals the core's clock since the run began: every charge goes
	// through a step's cost or the extra AfterBlock returns.
	accounted uint64

	st Stats
}

// bfResampleEvery spaces the sampling windows while running branch-free:
// return to the (counter-observable) branching scan only every Nth
// optimization point, keeping most vectors on the cheaper implementation.
const bfResampleEvery = 3

// NewBlockStepper builds the coordination state for one query. prof supplies
// the cache geometry the estimator models; workers is reported in the
// stats (the pool size the run is scheduled on). micro enables per-block
// implementation choice.
func NewBlockStepper(q *exec.Query, prof cpu.Profile, workers int, micro bool, opt Options) (*BlockStepper, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	nOps := len(q.Ops)
	s := &BlockStepper{
		base:     q,
		opt:      opt,
		micro:    micro,
		eligible: micro && exec.BranchFreeEligible(q),
		geometry: cachemodel.Geometry{LineSize: prof.Hierarchy.L3.LineSize, CapacityLines: prof.Hierarchy.L3.Lines()},
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

// WarmStart begins the run where a finished run of the same plan left off
// (the feedback cache): at its final order and scan implementation, with the
// orders it saw validation roll back already in the rejected set, so the
// regressions the predecessor paid for are not measured again. Only
// meaningful before the first step.
func (s *BlockStepper) WarmStart(order []int, impl exec.ScanImpl, rejected [][]int) error {
	if err := s.setOrder(order); err != nil {
		return err
	}
	if s.eligible {
		s.impl = impl
	}
	s.rejected = append(s.rejected, rejected...)
	return nil
}

// Rejected returns the orders validation rolled back that still stand at the
// end of the run: what WarmStart hands the next one.
func (s *BlockStepper) Rejected() [][]int { return slices.Clone(s.rejected) }

// at is the trace timestamp of a decision taken extra cycles into the
// current step's coordination.
func (s *BlockStepper) at(extra uint64) uint64 { return s.accounted + extra }

// AfterBlock runs the coordination that follows one finished step: validate
// the previous reorder against the step's per-vector cost (revert on
// regression) and, when optPoint says an optimization point is due, either
// issue a §4.5 probe or sample the merged counters, estimate selectivities,
// reorder by ascending rank and, in micro mode, choose the next step's scan
// implementation.
//
// Three rules bound what the loop can lose when its proposals are wrong. A
// sample belongs to the order it was taken under, so the step that reverts
// decides nothing else. Every order validation rolled back stays rejected —
// to the estimator and to the probe — until a reorder survives validation.
// And the k-th revert in a row sits out the next 2^k - 1 optimization points,
// uncharged, so a run whose first order was the best pays for O(log points)
// validation steps, not O(points). Both hold for as long as the data stands
// still: a step whose qualifying share has left the reverted step's ends them.
//
// tuples is the number of driving-table tuples the step covered. optPoint is
// the caller's schedule: every block but the last, and on a pool of one core,
// which steps a vector at a time, every ReopInterval-th vector but the last.
// validate says whether the step's cost may be held against the previous
// step's: true for every block (a short last block still reverts), false for
// a partial last vector, whose fixed costs are spread over fewer tuples.
// coord is the core the estimation runs on (the others idle at the block
// barrier); engines are the cores currently executing the query, each of
// which pays the recompile of a reorder or implementation switch. The
// returned cycles are the makespan extension of the coordination; the caller
// adds them to the query's clock.
func (s *BlockStepper) AfterBlock(br exec.BlockResult, tuples int, optPoint, validate bool, coord *cpu.CPU, engines []*exec.Engine) (uint64, error) {
	optPoint = optPoint && s.opt.ReopInterval > 0
	s.st.Blocks++
	s.st.Vectors += br.Vectors
	if s.micro {
		if s.impl == exec.ImplBranchFree {
			s.st.BranchFreeVectors += br.Vectors
		} else {
			s.st.BranchingVectors += br.Vectors
		}
	}
	s.accounted += br.MaxCycles
	changed, reverted := false, false
	var extra uint64
	costPerVec := float64(br.MaxCycles) / float64(br.Vectors)

	// A step made only of zone-map-skipped vectors cost nothing: it is neither
	// a verdict on the order it ran under nor a yardstick for the next one,
	// and a validation it leaves pending holds the optimization point.
	skipped := br.MaxCycles == 0
	if s.pendingValidation && !skipped {
		s.pendingValidation = false
		if validate && !s.opt.DisableValidation && s.prevCostPerVec > 0 && costPerVec > s.prevCostPerVec*(1+validationTolerance) {
			// Deteriorated: re-establish the previous order on every core and
			// remember the rejected one so it is not proposed again.
			s.rejected = append(s.rejected, s.curPerm)
			s.backoff++
			s.holdoff = 1<<s.backoff - 1
			s.heldQual, s.heldTuples = br.Qualifying, tuples
			reverted = true
			if err := s.setOrder(s.prevPerm); err != nil {
				return 0, err
			}
			extra += s.recompile(engines)
			s.st.Reverts++
			s.st.RevertedCycles += br.MaxCycles
			s.st.RegretCycles += br.MaxCycles - uint64(s.prevCostPerVec*float64(br.Vectors))
			changed = true
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "revert", s.at(extra), br.Counters,
					trace.Ints("to", s.curPerm), trace.Float64("cost_per_vec", costPerVec),
					trace.Float64("prev_cost_per_vec", s.prevCostPerVec))
			}
		} else {
			// The change survived: the data moved, so earlier verdicts are
			// stale and the loop is trusted again.
			s.rejected, s.backoff, s.holdoff = s.rejected[:0], 0, 0
		}
	}

	// Those verdicts are about the data they were measured on, and the share
	// of its tuples a step qualifies does not depend on the operator order:
	// once it differs from the reverted step's by more than chance allows, the
	// data has moved, and the loop is trusted again from this point on.
	if optPoint && s.backoff > 0 && !skipped && s.dataMoved(br.Qualifying, tuples) {
		s.rejected, s.backoff, s.holdoff = s.rejected[:0], 0, 0
	}

	// §4.5 correlation probe: the estimator has confirmed the same order
	// ExploreEvery optimization points in a row; its independence assumption
	// might be hiding a better order. A rotation validation already rejected
	// is skipped — the point falls through to plain estimation — and a
	// single operator has no other order to try.
	var probe []int
	if optPoint && !s.micro && s.opt.ExploreEvery > 0 && s.stableBlocks >= s.opt.ExploreEvery && len(s.curPerm) > 1 {
		// The rotation in current-order positions: the leading operator
		// moves to the back.
		for i := range s.order {
			s.order[i] = (i + 1) % len(s.order)
		}
		if !s.proposesRejected(s.order) {
			probe = compose(s.curPerm, s.order)
		}
	}
	switch {
	case !optPoint || s.pendingValidation:
	case reverted || s.holdoff > 0:
		// Just proven wrong: the step's sample was taken under the rejected
		// order, and each revert in a row doubles the points sat out.
		if !reverted {
			s.holdoff--
		}
		s.st.HeldOff++
	case probe != nil:
		// Run the next step under the rotation and let validation decide.
		s.stableBlocks = 0
		s.st.Explorations++
		s.prevPerm = s.curPerm
		if err := s.setOrder(probe); err != nil {
			return 0, err
		}
		extra += s.recompile(engines)
		s.pendingValidation = true
		changed = true
		if s.opt.Trace != nil {
			traceDecision(s.opt.Trace, "explore", s.at(extra), br.Counters,
				trace.Ints("from", s.prevPerm), trace.Ints("to", s.curPerm))
		}
	case s.impl == exec.ImplBranching:
		applied, err := s.estimate(br.Counters, tuples, &extra, coord, engines)
		if err != nil {
			return 0, err
		}
		changed = changed || applied
	default:
		// Branch-free steps carry no per-predicate branch signal; return to
		// the branching scan for one sampling window every few points.
		s.bfOptPoints++
		if s.bfOptPoints >= bfResampleEvery {
			s.bfOptPoints = 0
			s.st.ImplSwitches++
			s.impl = exec.ImplBranching
			extra += s.recompile(engines)
			if s.opt.Trace != nil {
				traceDecision(s.opt.Trace, "impl-switch", s.at(extra), br.Counters,
					trace.String("impl", implName(s.impl)),
					trace.Bool("resample", true))
			}
		}
	}
	if !skipped {
		s.prevCostPerVec = costPerVec
	}
	s.accounted += extra
	if changed {
		s.st.ConvergedAtCycles = s.accounted
	}
	return extra, nil
}

// estimate is an optimization point on the branching scan: charge the sample
// and the estimator's own work to the coordinator core, rank the operators by
// the estimate, and apply a changed order and (micro) a changed scan
// implementation on every core. It adds the cycles it charged to *extra and
// reports whether it changed the plan.
func (s *BlockStepper) estimate(counters pmu.Sample, tuples int, extra *uint64, coord *cpu.CPU, engines []*exec.Engine) (bool, error) {
	c0 := coord.Cycles()
	coord.Exec(sampleCostInstr)
	est, err := s.estimator.Estimate(SampleFromPMU(counters, tuples), EstimatorConfig{
		Widths:    s.curWidths,
		AggWidths: s.aggWidths,
		Geometry:  s.geometry,
	})
	if err != nil {
		return false, err
	}
	// An operator no tuple reached was not measured, and the solver's value
	// for it is arbitrary. It takes the estimate of the operator that starved
	// it, so the ranking moves the two together: it gets measured the moment
	// that operator lets tuples through.
	reach := float64(tuples)
	for i, sel := range est.Sels {
		if reach < 1 {
			est.Sels[i] = est.Sels[i-1]
		}
		reach *= sel
	}
	est.Sels = s.st.keepSels(est.Sels)
	s.st.Optimizations++
	s.st.EstimatorEvaluations += est.NMEvaluations
	s.st.LastEstimate = est.Sels
	coord.Exec(est.NMEvaluations * nmEvalCostInstr)
	s.st.SampleCycles += coord.Cycles() - c0
	*extra += coord.Cycles() - c0
	smp := Sample{
		Cycles:   s.accounted + *extra,
		Tuples:   tuples,
		Counters: counters.Project(paperGroup),
		Sels:     est.Sels,
	}
	s.st.addSample(smp)
	traceSample(s.opt.Trace, s.at(*extra), smp)

	changed := false
	order := rankOrder(s.order, s.curWeights, est.Sels)
	// The gain gate: a predicted saving validation could not tell from noise
	// (none at all when the order stands) is not worth a recompile, a
	// predictor reset and a step at risk.
	worthIt := planCost(order, s.curWeights, est.Sels) < planCost(nil, s.curWeights, est.Sels)*(1-validationTolerance)
	if worthIt && !s.proposesRejected(order) {
		s.stableBlocks = 0
		s.prevPerm = s.curPerm
		if err := s.setOrder(compose(s.curPerm, order)); err != nil {
			return false, err
		}
		*extra += s.recompile(engines)
		s.st.Reorders++
		s.pendingValidation = true
		changed = true
		if s.opt.Trace != nil {
			traceDecision(s.opt.Trace, "reorder", s.at(*extra), smp.Counters,
				trace.Ints("from", s.prevPerm), trace.Ints("to", s.curPerm),
				trace.Float64s("est_sels", est.Sels))
		}
	} else {
		s.stableBlocks++
	}
	if s.eligible {
		for i, o := range order {
			s.ordered[i] = est.Sels[o]
		}
		if next := ChooseImpl(s.ordered); next != s.impl {
			s.st.ImplSwitches++
			s.impl = next
			*extra += s.recompile(engines)
			changed = true
			if s.opt.Trace != nil {
				// The event retains its arguments; s.ordered is reused.
				traceDecision(s.opt.Trace, "impl-switch", s.at(*extra), smp.Counters,
					trace.String("impl", implName(s.impl)),
					trace.Float64s("est_sels", slices.Clone(s.ordered)))
			}
		}
	}
	return changed, nil
}

// planCost is the rank model's cost of running the operators in order (nil:
// as they are): each one's load weight times the share of rows reaching it.
func planCost(order []int, weights, sels []float64) float64 {
	cost, reach := 0.0, 1.0
	for i := range sels {
		o := i
		if order != nil {
			o = order[i]
		}
		cost += reach * weights[o]
		reach *= sels[o]
	}
	return cost
}

// dataMoved reports whether a step that qualified q of n tuples differs from
// the last reverted step by more than four standard errors of their pooled
// share (a two-proportion z-test; a run looks hundreds of times, so three
// would cry wolf).
func (s *BlockStepper) dataMoved(q int64, n int) bool {
	n0, n1 := float64(s.heldTuples), float64(n)
	pool := float64(s.heldQual+q) / (n0 + n1)
	d := float64(q)/n1 - float64(s.heldQual)/n0
	return d*d > 16*pool*(1-pool)*(1/n0+1/n1)
}

// proposesRejected reports whether order, in current-order positions, is an
// order validation has rolled back.
func (s *BlockStepper) proposesRejected(order []int) bool {
	for _, r := range s.rejected {
		if composesTo(s.curPerm, order, r) {
			return true
		}
	}
	return false
}

// TraceFinal emits the plan-final event on the stepper's decision track (if
// any), stamped with the accounted query clock. Callers invoke it once, when
// the query's last step has been coordinated.
func (s *BlockStepper) TraceFinal() {
	if s.opt.Trace == nil {
		return
	}
	l := s.st.Ledger
	s.opt.Trace.Instant("plan-final", s.at(0),
		trace.Ints("order", s.curPerm), trace.Int("reorders", s.st.Reorders),
		trace.String("impl", implName(s.impl)), trace.Uint64("converged_at", s.st.ConvergedAtCycles),
		trace.Uint64("sample_cycles", l.SampleCycles), trace.Uint64("recompile_cycles", l.RecompileCycles),
		trace.Uint64("reverted_cycles", l.RevertedCycles), trace.Uint64("regret_cycles", l.RegretCycles),
		trace.Int("held_off", l.HeldOff))
}

// Stats snapshots the coordination telemetry; FinalOrder is the permutation
// currently in effect (relative to the stepper's base query).
func (s *BlockStepper) Stats() Stats {
	st := s.st
	st.FinalOrder = append([]int(nil), s.curPerm...)
	return st
}

// recompile re-JITs the scan loop on every given core (new branch addresses,
// re-chained primitives) and returns the resulting makespan extension: the
// largest per-core cycle delta of the recompile.
func (s *BlockStepper) recompile(engines []*exec.Engine) uint64 {
	var max uint64
	for _, e := range engines {
		c := e.CPU()
		c0 := c.Cycles()
		if !s.opt.DisablePredictorReset {
			c.ResetPredictor()
		}
		c.Exec(reorderCostInstr)
		if d := c.Cycles() - c0; d > max {
			max = d
		}
	}
	s.st.RecompileCycles += max
	return max
}
