package core

import (
	"fmt"
	"slices"

	"progopt/internal/exec"
)

// Mode selects how a query is driven.
type Mode int

// Execution modes.
const (
	// ModeFixed executes the plan's operator order unchanged (the paper's
	// baseline "common execution pattern").
	ModeFixed Mode = iota
	// ModeProgressive re-optimizes the operator order during execution from
	// sampled PMU counters (§4.4).
	ModeProgressive
	// ModeMicroAdaptive is ModeProgressive plus per-interval implementation
	// choice between the branching and branch-free scan (predicates only).
	ModeMicroAdaptive
	// ModeEnumerated is ModeProgressive with the §5.7 comparator's evidence:
	// every optimization point's step runs the instrumented loop
	// (exec.ImplInstrumented), and the point ranks by the exact selectivities
	// it counted instead of sampling the PMU. The instrumentation is the
	// tax. Internal: the experiments run it, Exec and the server do not.
	ModeEnumerated
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeProgressive:
		return "progressive"
	case ModeMicroAdaptive:
		return "micro-adaptive"
	case ModeEnumerated:
		return "enumerated"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec is one query as the driver runs it.
type Spec struct {
	// Query is the compiled, bound query; its operator order is the one an
	// adaptive run starts from.
	Query *exec.Query
	Mode  Mode
	// Opt configures the reoptimizer loop of the adaptive modes.
	Opt Options
	// Groups makes the query a grouped aggregation: one partial hash table per
	// core of the pool, in fixed order. Each core a step runs on updates its own
	// table, the survivors fold into the run's accumulator, and the last step
	// merges the tables.
	Groups []*exec.GroupBy
	// Sorts makes it an ordered (OrderBy/Limit) query: one compiled sort state
	// per core. Each core a step runs on collects into its own partial heap or
	// run buffer, and the last step merges them.
	Sorts []*exec.Sort
	// Storage makes it a stored scan: one storage-scan view per core, as
	// storage.Plan.NewViews builds them (the plan's skip verdicts and the
	// core's private tier view, never nil). Each core a step runs on scans
	// through its own view, Drive colds the views with their cores, and the
	// last step adds the largest view's stall cycles — the slowest core's tier
	// debt — to the run's Cycles.
	Storage []*exec.StorageScan
	// Impl is the scan a ModeFixed run uses, zero meaning the branching loop.
	// exec.ImplInstrumented keeps the §5.7 enumerator's per-core counts.
	Impl exec.ScanImpl
	// Quantum is how many vectors per core one step of a fixed-order run
	// covers; zero or less is all that are left.
	Quantum int
}

// Validate checks the spec against the number of cores it will run on.
func (s *Spec) Validate(workers int) error {
	if s.Query == nil {
		return fmt.Errorf("core: run needs a query")
	}
	if s.Mode < ModeFixed || s.Mode > ModeEnumerated {
		return fmt.Errorf("core: unknown mode %d", int(s.Mode))
	}
	if len(s.Groups) > 0 {
		if s.Mode != ModeFixed {
			return fmt.Errorf("core: grouped queries must use ModeFixed")
		}
		if len(s.Sorts) > 0 {
			return fmt.Errorf("core: a query cannot both group and sort")
		}
		if len(s.Groups) != workers {
			return fmt.Errorf("core: %d partial group tables for %d cores", len(s.Groups), workers)
		}
	}
	if len(s.Sorts) > 0 {
		if s.Mode == ModeEnumerated {
			// The instrumented loop feeds no sort collector.
			return fmt.Errorf("core: ordered queries cannot use ModeEnumerated")
		}
		if len(s.Sorts) != workers {
			return fmt.Errorf("core: %d partial sort states for %d cores", len(s.Sorts), workers)
		}
	}
	switch s.Impl {
	case exec.ImplBranching:
	case exec.ImplBranchFree, exec.ImplInstrumented:
		if s.Mode != ModeFixed || len(s.Groups) > 0 {
			return fmt.Errorf("core: the %v scan runs in ModeFixed without groups", s.Impl)
		}
		if s.Impl == exec.ImplInstrumented && len(s.Sorts) > 0 {
			return fmt.Errorf("core: ordered queries cannot run instrumented")
		}
		if s.Impl == exec.ImplBranchFree && !exec.BranchFreeEligible(s.Query) {
			return fmt.Errorf("core: the branch-free scan needs a query of predicates only")
		}
	default:
		return fmt.Errorf("core: unknown scan implementation %d", int(s.Impl))
	}
	if len(s.Storage) > 0 && len(s.Storage) != workers {
		return fmt.Errorf("core: %d storage views for %d cores", len(s.Storage), workers)
	}
	if s.Mode != ModeFixed && s.Opt.ReopInterval <= 0 {
		return fmt.Errorf("core: ReopInterval %d: a %v run needs a positive interval", s.Opt.ReopInterval, s.Mode)
	}
	return s.Query.Validate()
}

// Run drives one query at a time through the paper's loop (§4.4, Figure 10):
// run a block, sample the PMU, maybe reorder, validate. It is the only caller
// of the stepper and of the sort and group-table merges. Whoever owns the
// cores calls Step until it reports the query done: the workload service once
// per scheduling round; everyone else through Drive.
//
// What a step reads is the query's cursor, the stepper's current order and
// the clocks it is handed; what it advances is the cursor, those clocks, and
// the accumulators below. Nothing else carries over, which is why a run may
// be cut into steps anywhere: the aggregate is added up in global vector
// order whatever the cut, and every step hands each morsel to the core whose
// clock is smallest, so consecutive steps on carried clocks are one seamless
// morsel stream. An adaptive step ends where its decision takes effect (see
// Step); a one-core step, at its vector.
//
// A Run keeps its scratch between queries; Begin starts the next one.
type Run struct {
	brun *exec.BlockRun
	// engines are the pool's; zero are Drive's clocks.
	engines []*exec.Engine
	zero    []uint64

	// A multi-core adaptive step's decision (Decide) reads its window's
	// tuples, schedule and exact counts from here. mark is the time the
	// previous decision left its core free, the query's start before the
	// first; ran and ranImpl are the order and scan the cores last ran, coord
	// the core that decided on them.
	winTuples            int
	optPoint, instrument bool
	mark                 uint64
	ran                  *exec.Query
	ranImpl              exec.ScanImpl
	coord                int

	spec  Spec
	step  *BlockStepper   // nil in fixed order
	sorts []*exec.SortRun // per core; nil unless ordered
	// counts are the per-core explicit counters of a ModeEnumerated or an
	// instrumented run, nil otherwise.
	counts  []exec.OpCounts
	numVec  int
	cursor  int
	started bool

	// Result accumulates the query's output: Sum in global vector order,
	// Counters as the PMU deltas of its morsels and coordination, Cycles as
	// the time from the first core's entry to the last core's exit (merge
	// barrier included). Millis is set by the last step.
	exec.Result
	// Groups and Sorted are a grouped and an ordered query's output rows.
	Groups []exec.Group
	Sorted []exec.SortedRow
	// Start is the clock the query began at: the earliest entry clock of its
	// first step.
	Start uint64
}

// NewRun returns a driver for the pool p.
func NewRun(p *exec.Parallel) *Run {
	return &Run{brun: p.NewBlockRun(), engines: p.Engines()}
}

// Begin makes spec the query the following steps execute.
func (r *Run) Begin(spec Spec) error {
	if err := spec.Validate(len(r.engines)); err != nil {
		return err
	}
	r.spec, r.step, r.sorts, r.counts = spec, nil, nil, nil
	if err := r.brun.BeginGroups(spec.Groups); err != nil {
		return err
	}
	if spec.Mode != ModeFixed {
		step, err := NewBlockStepper(spec.Query, r.engines[0].CPU().Profile(), len(r.engines), spec.Mode == ModeMicroAdaptive, spec.Opt)
		if err != nil {
			return err
		}
		r.step = step
	}
	if spec.Mode == ModeEnumerated || spec.Impl == exec.ImplInstrumented {
		n := len(spec.Query.Ops)
		r.counts = make([]exec.OpCounts, len(r.engines))
		for i := range r.counts {
			r.counts[i] = exec.OpCounts{Evaluated: make([]int64, n), Passed: make([]int64, n)}
		}
	}
	if len(spec.Sorts) > 0 {
		r.sorts = make([]*exec.SortRun, len(spec.Sorts))
		for i, s := range spec.Sorts {
			r.sorts[i] = exec.NewSortRun(s)
		}
	}
	r.numVec, r.cursor, r.started = r.engines[0].NumVectors(spec.Query), 0, false
	r.ran = nil
	r.Result, r.Groups, r.Sorted, r.Start = exec.Result{}, nil, nil, 0
	return nil
}

// Workers is the number of cores the run has: what a spec's per-core group
// tables and sort states are sized for.
func (r *Run) Workers() int { return len(r.engines) }

// Stepper returns the reoptimizer state of an adaptive run, nil in fixed
// order: what the workload service warm-starts before the first step and
// takes the feedback from after the last.
func (r *Run) Stepper() *BlockStepper { return r.step }

// Stats is the stepper's telemetry, zero in fixed order.
func (r *Run) Stats() Stats {
	if r.step == nil {
		return Stats{}
	}
	return r.step.Stats()
}

// Drive is the cold start: it runs the query to completion on every core,
// each cold (cpu.CPU.Cold) and with its storage view cold
// (cache.StorageSet.Cold), from zero clocks. Whoever calls Step itself colds a
// core when it changes hands between queries, and hands a stored query new
// views.
func (r *Run) Drive() error {
	if r.zero == nil {
		r.zero = make([]uint64, len(r.engines))
	}
	clear(r.zero)
	for _, e := range r.engines {
		e.CPU().Cold()
	}
	for _, v := range r.spec.Storage {
		v.Set.Cold()
	}
	for {
		if done, err := r.Step(r.zero); done || err != nil {
			return err
		}
	}
}

// Step executes the query's next block on the pool — clocks[w] the absolute
// time core w is next free, advanced in place — and reports whether that
// completed the query:
//
//   - fixed order: Quantum morsels per core as one morsel stream from the
//     clocks as they are (grouped: survivors fold into the run's accumulator);
//   - adaptive: ReopInterval morsels per core picked from the clocks as they
//     are — the window — and, when the last of them completes, the stepper
//     decides on the core it completed on, which pays for it; meanwhile the
//     other cores go on under the step's order while their clock is below the
//     decision's time, and the step ends at the first pick at or after it
//     (exec.BlockRun.RunWindow). The next step runs what was decided;
//   - the last step of an ordered or a grouped query: the pool barriers at
//     its latest clock; core 0 merges the partial sort states, or every core
//     merges one key range of the group tables, and every clock moves to the
//     barrier plus the slowest core's merge;
//   - the last step of a stored scan adds the largest view's stall cycles to
//     Cycles; the tier observes, so it moves no clock.
//
// On a pool of one core an adaptive step ends in its decision: an
// optimization point (every ReopInterval-th vector but the last) or a vector
// validating a pending change runs alone, the vectors between as one block.
func (r *Run) Step(clocks []uint64) (done bool, err error) {
	if len(clocks) != len(r.engines) {
		return false, fmt.Errorf("core: %d clocks for %d cores", len(clocks), len(r.engines))
	}
	if st := r.spec.Storage; r.sorts != nil || st != nil || r.counts != nil {
		// The collectors, the counters and the storage views ride on the
		// cores for the step; between steps another query may run on them.
		for w, e := range r.engines {
			if r.sorts != nil {
				e.SetSortRun(r.sorts[w])
			}
			if r.counts != nil {
				e.SetOpCounts(&r.counts[w])
			}
			if st != nil {
				e.SetStorage(st[w])
			}
		}
		defer func() {
			for _, e := range r.engines {
				e.SetSortRun(nil)
				e.SetOpCounts(nil)
				if st != nil {
					e.SetStorage(nil)
				}
			}
		}()
	}
	switch {
	case r.step != nil && len(r.engines) > 1:
		done, err = r.stepWindow(clocks)
	case r.step != nil:
		done, err = r.stepVector(clocks)
	default:
		done, err = r.stepQuantum(clocks)
	}
	if done && err == nil {
		if r.step != nil {
			r.step.TraceFinal()
		}
		var stall uint64
		for _, v := range r.spec.Storage {
			stall = max(stall, v.Set.Counters().StallCycles)
		}
		r.Cycles += stall
		r.Millis = r.engines[0].CPU().MillisOf(r.Cycles)
	}
	return done, err
}

// begin stamps the query's start clock on its first step.
func (r *Run) begin(at uint64) {
	if !r.started {
		r.started, r.Start = true, at
	}
}

// vectors is how many vectors the next step covers at perCore per core.
func (r *Run) vectors(perCore, cores int) int {
	if perCore <= 0 {
		return r.numVec - r.cursor
	}
	return min(perCore*cores, r.numVec-r.cursor)
}

func (r *Run) stepQuantum(clocks []uint64) (bool, error) {
	r.begin(slices.Min(clocks))
	v1 := r.cursor + r.vectors(r.spec.Quantum, len(r.engines))
	br, err := r.brun.RunBlock(r.spec.Query, r.cursor, v1, clocks, r.spec.Impl, &r.Sum)
	if err != nil {
		return false, err
	}
	r.Counters = r.Counters.Add(br.Counters)
	r.Qualifying += br.Qualifying
	r.Vectors += br.Vectors
	if r.cursor = v1; v1 < r.numVec {
		return false, nil
	}
	end := slices.Max(clocks)
	if r.sorts != nil || len(r.spec.Groups) > 0 {
		end += r.merge()
		fill(clocks, end)
	}
	r.Cycles = end - r.Start
	return true, nil
}

// stepVector is an adaptive step on a pool of one core: a vector, then the
// stepper's coordination on the core. Every ReopInterval-th vector but the
// last is an optimization point, and it and a vector that validates a
// pending change run alone; the vectors between them run as one block (see
// oneCoreBlock), which the stepper holds to the same account.
func (r *Run) stepVector(clocks []uint64) (bool, error) {
	t0 := clocks[0]
	r.begin(t0)
	every := r.step.opt.ReopInterval
	v1 := r.oneCoreBlock(every)
	vs := r.engines[0].VectorSize()
	tuples := min(v1*vs, r.spec.Query.Table.NumRows()) - r.cursor*vs
	last := v1 == r.numVec
	// A partial vector is held against nothing, its fixed costs being spread
	// over fewer tuples.
	optPoint, validate := v1%every == 0 && v1-r.cursor == 1 && !last, tuples == (v1-r.cursor)*vs
	// An enumerated run counts its evidence during an optimization point's
	// step.
	impl, instrument := r.step.Impl(), r.counts != nil && optPoint
	if instrument {
		impl = exec.ImplInstrumented
		clear(r.counts[0].Evaluated)
		clear(r.counts[0].Passed)
	}
	br, err := r.brun.RunBlock(r.step.Query(), r.cursor, v1, clocks, impl, &r.Sum)
	if err != nil {
		return false, err
	}
	var exact []float64
	if instrument {
		exact = r.exactSels()
	}
	c := r.engines[0].CPU()
	coordStart := c.Sample()
	extra, err := r.coordinate(br, tuples, exact, optPoint, validate, 0)
	if err != nil {
		return false, err
	}
	r.Counters = r.Counters.Add(br.Counters).Add(c.Sample().Sub(coordStart))
	r.Qualifying += br.Qualifying
	r.Vectors += br.Vectors
	busy := br.MaxCycles + extra
	r.Cycles += busy
	r.cursor = v1
	if last && r.sorts != nil {
		merge := r.merge()
		r.Cycles += merge
		busy += merge
	}
	clocks[0] = t0 + busy
	return last, nil
}

// oneCoreBlock returns the end of a one-core step from the cursor: the next
// vector alone when it is a point or validates a pending change, and
// otherwise every vector up to the next point. A block's only mark on the
// stepper is its cost, the yardstick a point's validation holds the next
// vector to — the point's own, or, when the point is zone-map-skipped and so
// costs nothing, the last vector before it that cost something. So that
// vector ends a block too.
func (r *Run) oneCoreBlock(every int) int {
	next := r.cursor + 1
	p := (next+every-1)/every*every - 1 // the next point at or after the cursor
	if p == r.cursor || r.step.pendingValidation {
		return next
	}
	if p >= r.numVec-1 {
		return r.numVec
	}
	var skip []bool
	if st := r.spec.Storage; st != nil {
		skip = st[0].Skip
	}
	if p < len(skip) && skip[p] {
		for u := p - 1; u >= r.cursor; u-- {
			if !skip[u] {
				return max(u, next)
			}
		}
	}
	return p
}

// stepWindow is an adaptive step on a pool of two or more cores: a window of
// ReopInterval morsels per core, decided on by Decide, and the morsels the
// other cores pick before the decision's time (exec.BlockRun.RunWindow).
func (r *Run) stepWindow(clocks []uint64) (bool, error) {
	if !r.started {
		r.begin(slices.Min(clocks))
		r.mark = r.Start
	}
	q, impl := r.step.Query(), r.step.Impl()
	if r.ran != nil && (q != r.ran || impl != r.ranImpl) {
		// The decision recompiled the scan on its core; every other core
		// meets the new code, and its branch sites, cold.
		for w, e := range r.engines {
			if w != r.coord {
				e.CPU().ResetPredictor()
			}
		}
	}
	r.ran, r.ranImpl = q, impl
	win := r.cursor + r.vectors(r.step.opt.ReopInterval, len(r.engines))
	vs := r.engines[0].VectorSize()
	r.winTuples = min(win*vs, r.spec.Query.Table.NumRows()) - r.cursor*vs
	// Every window but the last is an optimization point; an enumerated run
	// counts a point's evidence in its window.
	r.optPoint = win < r.numVec
	winImpl := impl
	if r.instrument = r.counts != nil && r.optPoint; r.instrument {
		winImpl = exec.ImplInstrumented
		for _, c := range r.counts {
			clear(c.Evaluated)
			clear(c.Passed)
		}
	}
	br, err := r.brun.RunWindow(q, r.cursor, win, r.numVec, clocks, winImpl, impl, &r.Sum, r)
	if err != nil {
		return false, err
	}
	r.Counters = r.Counters.Add(br.Counters)
	r.Qualifying += br.Qualifying
	r.Vectors += br.Vectors
	r.step.countVectors(br.Vectors-(win-r.cursor), impl)
	if r.cursor += br.Vectors; r.cursor < r.numVec {
		return false, nil
	}
	end := slices.Max(clocks)
	for _, cl := range clocks {
		r.step.st.IdleCycles += end - cl
	}
	if r.sorts != nil || len(r.spec.Groups) > 0 {
		end += r.merge()
		fill(clocks, end)
	}
	r.Cycles = end - r.Start
	return true, nil
}

// Decide is the decision of a multi-core adaptive step (exec.Decider): the
// stepper's coordination over the window, charged to the core the window
// completed on. The window's cost is what its morsels cost per core, and the
// query's clock advances by the time from the previous decision to the
// window's end.
func (r *Run) Decide(w *exec.Window) error {
	var exact []float64
	if r.instrument {
		exact = r.exactSels()
	}
	w.MaxCycles = w.End - r.mark
	extra, err := r.coordinate(w.BlockResult, r.winTuples, exact, r.optPoint, true, w.Core)
	r.mark, r.coord = w.End+extra, w.Core
	return err
}

// coordinate hands the stepper a finished step and charges its coordination
// to core coord, which alone recompiles what it changes. See AfterBlock for
// the arguments and the cycles returned.
func (r *Run) coordinate(br exec.BlockResult, tuples int, exact []float64, optPoint, validate bool, coord int) (uint64, error) {
	e := r.engines[coord : coord+1]
	return r.step.AfterBlock(br, tuples, exact, optPoint, validate, e[0].CPU(), e)
}

// exactSels sums the counters the cores of an instrumented step kept into the
// exact selectivities of the order the step ran under.
func (r *Run) exactSels() []float64 {
	total := r.counts[0]
	for _, c := range r.counts[1:] {
		for i, n := range c.Evaluated {
			total.Evaluated[i] += n
			total.Passed[i] += c.Passed[i]
		}
	}
	return total.Selectivities()
}

// fill sets every clock of a pool that leaves a barrier together.
func fill(clocks []uint64, t uint64) {
	for i := range clocks {
		clocks[i] = t
	}
}

// merge runs the barrier of a completed ordered or grouped query on the pool,
// whose cores wait at the barrier for the slowest of them: the partial sort
// states merge on core 0, the group tables on every core, each owning a range
// of the keys (exec.BlockRun.FinalizeGroups). It returns the barrier's
// makespan, the largest core's merge cycles; every core's PMU delta joins the
// query's counters.
func (r *Run) merge() uint64 {
	if r.sorts == nil {
		var br exec.BlockResult
		r.Groups, br = r.brun.FinalizeGroups()
		r.Counters = r.Counters.Add(br.Counters)
		return br.MaxCycles
	}
	c := r.engines[0].CPU()
	s0, c0 := c.Sample(), c.Cycles()
	r.Sorted = exec.FinalizeSort(c, 0, r.sorts)
	r.Counters = r.Counters.Add(c.Sample().Sub(s0))
	return c.Cycles() - c0
}
