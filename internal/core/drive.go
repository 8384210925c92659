package core

import (
	"fmt"
	"slices"

	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
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
	// covers (and of an adaptive run whose ReopInterval is zero); zero or less
	// is all that are left.
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
	return s.Query.Validate()
}

// Run drives one query at a time through the paper's loop (§4.4, Figure 10):
// run a block, sample the PMU, maybe reorder, validate. It is the only caller
// of the stepper and of the sort and group-table merges. Whoever owns the
// cores calls Step until it reports the query done: the workload service once
// per scheduling round, on whatever subset its partitioner gave the query;
// everyone else through Drive.
//
// What a step reads is the query's cursor, the stepper's current order and
// the clocks it is handed; what it advances is the cursor, those clocks, and
// the accumulators below. Nothing else carries over, which is why a run may
// be cut into steps anywhere and moved between subsets: the aggregate is
// added up in global vector order whatever the cut, a fixed-order run hands
// each morsel to the core whose clock is smallest, so consecutive quanta on
// carried clocks are one seamless morsel stream, and an adaptive block starts
// at a barrier, so it depends on the subset's size and latest clock only.
//
// A Run keeps its scratch between queries; Begin starts the next one.
type Run struct {
	brun *exec.BlockRun
	// engines are the pool's; all and zero are Drive's subset.
	engines []*exec.Engine
	all     []int
	zero    []uint64
	// subset and coordStart are a block's engines and their PMUs before the
	// stepper's coordination.
	subset     []*exec.Engine
	coordStart []pmu.Sample

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
	// the time it kept its cores busy (a fixed-order run: first entry to last
	// exit; an adaptive one: block makespans plus coordination, barrier waits
	// excluded). Millis is set by the last step.
	exec.Result
	// Groups and Sorted are a grouped and an ordered query's output rows.
	Groups []exec.Group
	Sorted []exec.SortedRow
	// Start is the clock the query began at: the earliest entry clock of a
	// fixed-order run's first step, the barrier of an adaptive one.
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
	if r.all == nil {
		r.all, r.zero = identity(len(r.engines)), make([]uint64, len(r.engines))
	}
	clear(r.zero)
	for _, e := range r.engines {
		e.CPU().Cold()
	}
	for _, v := range r.spec.Storage {
		v.Set.Cold()
	}
	for {
		if done, err := r.Step(r.all, r.zero); done || err != nil {
			return err
		}
	}
}

// Step executes the query's next block on the given cores of the pool —
// ascending ids, clocks[i] the absolute time core cores[i] is next free,
// advanced in place — and reports whether that completed the query:
//
//   - fixed order: Quantum morsels per core as one morsel stream from the
//     clocks as they are (grouped: survivors fold into the run's accumulator);
//   - adaptive: the subset barriers at its latest clock, runs ReopInterval
//     morsels per core, the stepper coordinates on the subset's first core,
//     and every clock moves to the barrier plus the block's makespan plus
//     what the coordination charged;
//   - the last step of an ordered or a grouped query: the subset barriers,
//     its first core merges the partial sort states or group tables, and every
//     clock moves to the merge's end;
//   - the last step of a stored scan adds the largest view's stall cycles to
//     Cycles; the tier observes, so it moves no clock.
//
// On a pool of one core an adaptive step is one vector, every ReopInterval-th
// an optimization point.
func (r *Run) Step(cores []int, clocks []uint64) (done bool, err error) {
	if st := r.spec.Storage; r.sorts != nil || st != nil || r.counts != nil {
		// The collectors, the counters and the storage views ride on
		// whichever cores the step runs on; the next step, or another query,
		// may get different ones.
		for _, w := range cores {
			if r.sorts != nil {
				r.engines[w].SetSortRun(r.sorts[w])
			}
			if r.counts != nil {
				r.engines[w].SetOpCounts(&r.counts[w])
			}
			if st != nil {
				r.engines[w].SetStorage(st[w])
			}
		}
		defer func() {
			for _, w := range cores {
				r.engines[w].SetSortRun(nil)
				r.engines[w].SetOpCounts(nil)
				if st != nil {
					r.engines[w].SetStorage(nil)
				}
			}
		}()
	}
	if r.step != nil {
		done, err = r.stepBlock(cores, clocks)
	} else {
		done, err = r.stepQuantum(cores, clocks)
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

// coordinate hands the stepper a finished step of an adaptive run and returns
// the cycles the step kept the query's cores busy: its makespan plus what the
// coordination charged. See AfterBlock for exact, optPoint and validate.
func (r *Run) coordinate(br exec.BlockResult, tuples int, exact []float64, optPoint, validate bool, engines []*exec.Engine) (uint64, error) {
	extra, err := r.step.AfterBlock(br, tuples, exact, optPoint, validate, engines[0].CPU(), engines)
	if err != nil {
		return 0, err
	}
	r.Qualifying += br.Qualifying
	r.Vectors += br.Vectors
	r.Cycles += br.MaxCycles + extra
	return br.MaxCycles + extra, nil
}

// vectors is how many vectors the next step covers at perCore per core.
func (r *Run) vectors(perCore, cores int) int {
	if perCore <= 0 {
		return r.numVec - r.cursor
	}
	return min(perCore*cores, r.numVec-r.cursor)
}

func (r *Run) stepQuantum(cores []int, clocks []uint64) (bool, error) {
	r.begin(slices.Min(clocks))
	v1 := r.cursor + r.vectors(r.spec.Quantum, len(cores))
	br, err := r.brun.RunBlockSubset(r.spec.Query, r.cursor, v1, cores, clocks, r.spec.Impl, &r.Sum)
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
		end += r.merge(cores[0])
		fill(clocks, end)
	}
	r.Cycles = end - r.Start
	return true, nil
}

func (r *Run) stepBlock(cores []int, clocks []uint64) (bool, error) {
	t0 := slices.Max(clocks)
	r.begin(t0)
	every, one := r.step.opt.ReopInterval, len(r.engines) == 1
	perCore := every
	switch {
	case one:
		perCore = 1
	case perCore <= 0:
		perCore = r.spec.Quantum
	}
	v1 := r.cursor + r.vectors(perCore, len(cores))
	vs := r.engines[0].VectorSize()
	tuples := min(v1*vs, r.spec.Query.Table.NumRows()) - r.cursor*vs
	last := v1 == r.numVec
	// Every block but the last is an optimization point, and every block's
	// cost — a short last one's too — is held against the previous block's.
	// A pool of one core steps a vector at a time: every ReopInterval-th but
	// the last is a point, and a partial vector is held against nothing, its
	// fixed costs being spread over fewer tuples.
	optPoint, validate := !last, true
	if one {
		optPoint, validate = every > 0 && v1%every == 0 && !last, tuples == vs
	}
	// An enumerated run counts its evidence during an optimization point's
	// step.
	impl, instrument := r.step.Impl(), r.counts != nil && optPoint && every > 0
	if instrument {
		impl = exec.ImplInstrumented
		for _, w := range cores {
			clear(r.counts[w].Evaluated)
			clear(r.counts[w].Passed)
		}
	}
	fill(clocks, t0)
	br, err := r.brun.RunBlockSubset(r.step.Query(), r.cursor, v1, cores, clocks, impl, &r.Sum)
	if err != nil {
		return false, err
	}
	var exact []float64
	if instrument {
		exact = r.exactSels(cores)
	}
	if cap(r.subset) < len(cores) {
		r.subset = make([]*exec.Engine, len(cores))
		r.coordStart = make([]pmu.Sample, len(cores))
	}
	subset, coordStart := r.subset[:len(cores)], r.coordStart[:len(cores)]
	for i, w := range cores {
		subset[i] = r.engines[w]
		coordStart[i] = subset[i].CPU().Sample()
	}
	busy, err := r.coordinate(br, tuples, exact, optPoint, validate, subset)
	if err != nil {
		return false, err
	}
	r.Counters = r.Counters.Add(br.Counters)
	for i, e := range subset {
		r.Counters = r.Counters.Add(e.CPU().Sample().Sub(coordStart[i]))
	}
	r.cursor = v1
	if last && r.sorts != nil {
		merge := r.merge(cores[0])
		r.Cycles += merge
		busy += merge
	}
	fill(clocks, t0+busy)
	return last, nil
}

// exactSels sums the counters the cores of an instrumented step kept into the
// exact selectivities of the order the step ran under.
func (r *Run) exactSels(cores []int) []float64 {
	total := r.counts[cores[0]]
	for _, w := range cores[1:] {
		for i, n := range r.counts[w].Evaluated {
			total.Evaluated[i] += n
			total.Passed[i] += r.counts[w].Passed[i]
		}
	}
	return total.Selectivities()
}

// fill sets every clock of a subset that leaves a step together.
func fill(clocks []uint64, t uint64) {
	for i := range clocks {
		clocks[i] = t
	}
}

// merge runs the merge of a completed ordered or grouped query — of its
// partial sort states or group tables — on core coord, every other core
// waiting at the barrier for it: the merge extends the makespan. It returns
// the merge's cycles; its PMU delta joins the query's counters.
func (r *Run) merge(coord int) uint64 {
	c := r.engines[coord].CPU()
	s0, c0 := c.Sample(), c.Cycles()
	if r.sorts != nil {
		r.Sorted = exec.FinalizeSort(c, coord, r.sorts)
	} else {
		r.Groups = r.brun.FinalizeGroups(coord)
	}
	r.Counters = r.Counters.Add(c.Sample().Sub(s0))
	return c.Cycles() - c0
}

// RunAdaptive drives q in ModeProgressive — ModeMicroAdaptive with micro set —
// to completion on the pool p and returns the result with the stepper's
// telemetry.
func RunAdaptive(p *exec.Parallel, q *exec.Query, opt Options, micro bool) (exec.Result, Stats, error) {
	mode := ModeProgressive
	if micro {
		mode = ModeMicroAdaptive
	}
	r := NewRun(p)
	if err := r.Begin(Spec{Query: q, Mode: mode, Opt: opt}); err != nil {
		return exec.Result{}, Stats{}, err
	}
	if err := r.Drive(); err != nil {
		return exec.Result{}, Stats{}, err
	}
	return r.Result, r.Stats(), nil
}
