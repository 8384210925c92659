package progopt

import (
	"fmt"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Mode selects how Exec drives a query.
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
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ExecOptions configure one Exec call.
type ExecOptions struct {
	// Mode selects fixed, progressive, or micro-adaptive execution.
	Mode Mode
	// Progressive configures the optimizer for ModeProgressive and
	// ModeMicroAdaptive (ignored by ModeFixed).
	Progressive Progressive
}

// ImplStats reports the micro-adaptive implementation choices of a run.
type ImplStats struct {
	// BranchingVectors and BranchFreeVectors count vectors per scan
	// implementation; ImplSwitches counts changes.
	BranchingVectors, BranchFreeVectors, ImplSwitches int
}

// GroupRow is one output row of a grouped aggregation: the group Key, the
// Sum of the aggregated value and the Count of contributing tuples.
type GroupRow = exec.Group

// OrderedRow is one row of a sorted (OrderBy/Limit) plan's output.
type OrderedRow struct {
	// Row is the driving-table row id — the deterministic tie-break, and a
	// handle back into the data set.
	Row int64
	// Keys holds the sort-key values in OrderBy precedence order
	// (integer-kind columns widened to float64).
	Keys []float64
	// Value is the plan's Sum expression evaluated for this row (0 when the
	// plan has no Sum). Result.Sum still totals the expression over all
	// qualifying tuples, limit or not.
	Value float64
}

// ExecResult is the outcome of one Exec call: the execution result, the
// grouped output when the plan groups, the ordered output when it sorts,
// and optimizer telemetry when the mode adapts.
type ExecResult struct {
	Result
	// Groups holds the grouped-aggregation output rows (sorted by key) when
	// the plan has a GroupBy step; nil otherwise.
	Groups []GroupRow
	// Rows holds the ordered output when the plan has OrderBy (truncated to
	// Limit when one is set); nil otherwise. Bit-identical across execution
	// modes and worker counts.
	Rows []OrderedRow
	// Stats reports optimizer actions (zero-valued under ModeFixed).
	Stats Stats
	// Impl reports implementation choices (zero-valued unless
	// ModeMicroAdaptive).
	Impl ImplStats
	// Served carries workload-server provenance (arrival/latency
	// timestamps, cache hits, warm starts) when the result came from
	// Ticket.Wait; nil for direct Exec calls.
	Served *ServedInfo
	// Storage reports the stored scan — block pruning and tier activity —
	// when the engine executes over storage; nil for in-RAM engines.
	Storage *StorageStats
}

// Exec executes a compiled query from a cold hardware state. It is the
// single entry point for every execution shape: all modes honor
// Config.Workers (with Workers > 1 the scan runs morsel-driven; Cycles and
// Millis are makespans and Counters the merged per-core PMU deltas), and a
// grouped plan aggregates with per-core partial hash tables merged at the
// barrier. Qualifying, Sum, and Groups are bit-identical across modes and
// worker counts.
//
// Grouped plans currently execute their operator order as compiled
// (ModeFixed); adaptive modes on grouped plans return an error.
func (e *Engine) Exec(q *Query, opts ExecOptions) (ExecResult, error) {
	if q == nil || q.q == nil {
		return ExecResult{}, fmt.Errorf("progopt: Exec needs a compiled query")
	}
	switch opts.Mode {
	case ModeFixed, ModeProgressive, ModeMicroAdaptive:
	default:
		return ExecResult{}, fmt.Errorf("progopt: unknown execution mode %d", int(opts.Mode))
	}
	if q.group != nil && opts.Mode != ModeFixed {
		return ExecResult{}, fmt.Errorf("progopt: %s execution of grouped plans is not supported yet; use ModeFixed", opts.Mode)
	}
	// A stored query runs with the storage tier attached to every core —
	// residency dropped first (every Exec is a cold scan), counters
	// snapshotted for the post-run delta.
	var before []cache.StorageCounters
	if q.storage != nil {
		b, err := e.attachStorage(q.storage)
		if err != nil {
			return ExecResult{}, err
		}
		before = b
		defer e.detachStorage()
	}
	// The trace summary aggregates exactly this query's events: mark the
	// recorder now, summarize what was appended after the run.
	var marks []int
	if e.tr != nil {
		marks = e.tr.rec.Marks()
	}
	var out ExecResult
	var err error
	switch {
	case q.group != nil:
		out, err = e.execGrouped(q)
	case q.sort != nil:
		out, err = e.execSorted(q, opts)
	default:
		out, err = e.execScan(q, opts)
	}
	if err != nil {
		return ExecResult{}, err
	}
	if e.tr != nil {
		aggs := summarizeTrace(e.tr.rec.SummarizeSince(marks))
		q.traced.Store(&aggs)
	}
	if q.storage != nil {
		// The tier is an observer: the run's schedule, results, and PMU
		// counters are exactly the in-RAM engine's. Its stall debt extends
		// the reported time — the slowest core's stalls on a parallel run,
		// the run's whole stall delta on a serial one.
		stats, maxStall := storageStats(q.storage.plan, q.storage.views, before)
		out.Storage = stats
		out.Cycles += maxStall
		out.Millis = e.cpu.MillisOf(out.Cycles)
	}
	return out, nil
}

// execScan runs an unordered plan in the requested mode.
func (e *Engine) execScan(q *Query, opts ExecOptions) (ExecResult, error) {
	if opts.Mode == ModeFixed {
		return e.execFixed(q)
	}
	return e.execAdaptive(q, opts.Progressive, opts.Mode == ModeMicroAdaptive)
}

// execSorted runs a sorted plan: the scan executes in the requested mode —
// fixed, progressive, or micro-adaptive, serial or morsel-parallel — with a
// fresh per-core sort collector attached to every engine, then the
// coordinator core (core 0) merges the partial heaps or sorted runs at the
// barrier and emits the ordered output, extending the run's makespan and
// counters exactly like the grouped aggregation's merge. The emitted rows
// are the unique total-order result (keys, then row id), so they are
// bit-identical across modes and worker counts.
func (e *Engine) execSorted(q *Query, opts ExecOptions) (ExecResult, error) {
	runs := make([]*exec.SortRun, len(q.sort.states))
	for i, s := range q.sort.states {
		runs[i] = exec.NewSortRun(s)
	}
	if e.par != nil {
		engines := e.par.Engines()
		if len(engines) != len(runs) {
			return ExecResult{}, fmt.Errorf("progopt: query compiled for %d cores, engine has %d", len(runs), len(engines))
		}
		for i, w := range engines {
			w.SetSortRun(runs[i])
		}
		defer func() {
			for _, w := range engines {
				w.SetSortRun(nil)
			}
		}()
	} else {
		e.eng.SetSortRun(runs[0])
		defer e.eng.SetSortRun(nil)
	}
	out, err := e.execScan(q, opts)
	if err != nil {
		return ExecResult{}, err
	}
	coord := e.cpu
	if e.par != nil {
		coord = e.par.Engines()[0].CPU()
	}
	s0 := coord.Sample()
	c0 := coord.Cycles()
	rows := exec.FinalizeSort(coord, 0, runs)
	out.Cycles += coord.Cycles() - c0
	out.Millis = coord.MillisOf(out.Cycles)
	addCounters(out.Counters, coord.Sample().Sub(s0))
	out.Rows = toOrderedRows(rows)
	return out, nil
}

// toOrderedRows maps the executor's sorted rows to the public type.
func toOrderedRows(rows []exec.SortedRow) []OrderedRow {
	out := make([]OrderedRow, len(rows))
	for i, r := range rows {
		out[i] = OrderedRow{Row: r.Row, Keys: r.Keys, Value: r.Value}
	}
	return out
}

// addCounters folds a PMU delta into a public counter map.
func addCounters(m map[string]uint64, delta pmu.Sample) {
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		m[ev.String()] += delta.Get(ev)
	}
}

// cold resets transient hardware state on every core the run will use.
func (e *Engine) cold() {
	if e.par != nil {
		e.par.Cold()
		return
	}
	e.cpu.FlushCaches()
	e.cpu.ResetPredictor()
}

func (e *Engine) execFixed(q *Query) (ExecResult, error) {
	e.cold()
	if e.par != nil {
		r, err := e.par.Run(q.q)
		if err != nil {
			return ExecResult{}, err
		}
		return ExecResult{Result: toResult(r)}, nil
	}
	r, err := e.eng.Run(q.q)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Result: toResult(r)}, nil
}

// optTrack returns the engine's optimizer decision track, nil when tracing is
// disabled.
func (e *Engine) optTrack() *trace.Track {
	if e.tr == nil {
		return nil
	}
	return e.tr.opt
}

// execAdaptive runs the reoptimizer loop over the plan: vector-granular on
// the engine's single core, block-granular on its pool when Workers > 1.
func (e *Engine) execAdaptive(q *Query, p Progressive, micro bool) (ExecResult, error) {
	opts := p.coreOptions()
	opts.Trace = e.optTrack()
	e.cold()
	r, st, err := core.RunAdaptive(e.eng, e.par, q.q, opts, micro)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{
		Result: toResult(r),
		Stats:  toStats(st),
		Impl: ImplStats{
			BranchingVectors:  st.BranchingVectors,
			BranchFreeVectors: st.BranchFreeVectors,
			ImplSwitches:      st.ImplSwitches,
		},
	}, nil
}

func (e *Engine) execGrouped(q *Query) (ExecResult, error) {
	e.cold()
	var res exec.GroupResult
	var err error
	if e.par != nil {
		res, err = e.par.RunGroupBy(q.q, q.group.tables)
	} else {
		res, err = e.eng.RunGroupBy(q.q, q.group.tables[0])
	}
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Result: toResult(res.Result), Groups: res.Groups}, nil
}

// coreOptions maps the public Progressive knobs to the driver options,
// applying the default interval.
func (p Progressive) coreOptions() core.Options {
	interval := p.Interval
	if interval <= 0 {
		interval = 10
	}
	return core.Options{
		ReopInterval:      interval,
		DisableValidation: p.DisableValidation,
	}
}

// toStats maps driver stats to the public type.
func toStats(st core.Stats) Stats {
	return Stats{
		Optimizations:     st.Optimizations,
		Reorders:          st.Reorders,
		Reverts:           st.Reverts,
		FinalOrder:        st.FinalOrder,
		LastEstimate:      st.LastEstimate,
		ConvergedAtCycles: st.ConvergedAtCycles,
		Samples:           toSamples(st.Samples),
		Ledger:            st.Ledger,
	}
}

// toSamples maps the driver's retained observation series to the public type.
func toSamples(ss []core.Sample) []SampleObs {
	if len(ss) == 0 {
		return nil
	}
	out := make([]SampleObs, len(ss))
	for i, s := range ss {
		out[i] = SampleObs{
			Cycles: s.Cycles,
			Tuples: s.Tuples,
			Counters: SampleCounters{
				BrNotTaken:   s.Counters.Get(pmu.BrNotTaken),
				BrMPTaken:    s.Counters.Get(pmu.BrMPTaken),
				BrMPNotTaken: s.Counters.Get(pmu.BrMPNotTaken),
				L3Access:     s.Counters.Get(pmu.L3Access),
			},
			Sels: s.Sels,
		}
	}
	return out
}
