package progopt

import (
	"fmt"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Mode selects how Exec drives a query.
type Mode = core.Mode

// Execution modes.
const (
	// ModeFixed executes the plan's operator order unchanged (the paper's
	// baseline "common execution pattern").
	ModeFixed = core.ModeFixed
	// ModeProgressive re-optimizes the operator order during execution from
	// sampled PMU counters (§4.4).
	ModeProgressive = core.ModeProgressive
	// ModeMicroAdaptive is ModeProgressive plus per-interval implementation
	// choice between the branching and branch-free scan (predicates only).
	ModeMicroAdaptive = core.ModeMicroAdaptive
)

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

// OrderedRow is one row of a sorted (OrderBy/Limit) plan's output: the
// driving-table Row id (the deterministic tie-break, and a handle back into
// the data set), the sort Keys in OrderBy precedence order (integer-kind
// columns widened to float64), and the Value of the plan's Sum expression for
// the row (0 when the plan has no Sum; Result.Sum still totals the expression
// over all qualifying tuples, limit or not).
type OrderedRow = exec.SortedRow

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
// single entry point for every execution shape: all modes run morsel-driven
// on Config.Workers cores (Cycles and Millis are makespans and Counters the
// merged per-core PMU deltas), and a grouped plan is such a scan whose
// survivors aggregate in per-core partial hash tables, merged at the barrier
// that ends it. Qualifying, Sum, and Groups are bit-identical across modes
// and worker counts.
//
// Grouped plans currently execute their operator order as compiled
// (ModeFixed); adaptive modes on grouped plans return an error.
func (e *Engine) Exec(q *Query, opts ExecOptions) (ExecResult, error) {
	if q == nil || q.q == nil {
		return ExecResult{}, fmt.Errorf("progopt: Exec needs a compiled query")
	}
	if err := checkMode(opts.Mode, q.group != nil); err != nil {
		return ExecResult{}, err
	}
	spec := e.spec(q, opts)
	if q.storage != nil {
		// The compiled query's own stream: Drive colds it, so every Exec is a
		// cold scan.
		spec.Storage = q.storage.stream
	}
	// The trace summary aggregates exactly this query's events: mark the
	// recorder now, summarize what was appended after the run.
	var marks []int
	if e.tr != nil {
		marks = e.tr.rec.Marks()
	}
	// One driver for every shape, mode and worker count: a fixed-order scan is
	// a single morsel stream, an adaptive one a block per step (a vector on a
	// pool of one core).
	if err := e.run.Begin(spec); err != nil {
		return ExecResult{}, err
	}
	if err := e.run.Drive(); err != nil {
		return ExecResult{}, err
	}
	out := toExecResult(e.run.Result, e.run.Groups, e.run.Sorted, e.run.Stats())
	if e.tr != nil {
		aggs := e.tr.rec.SummarizeSince(marks)
		q.traced.Store(&aggs)
	}
	if q.storage != nil {
		out.Storage = storageStats(q.storage.plan, q.storage.stream)
	}
	return out, nil
}

// checkMode refuses a mode Exec and the server cannot run: an unknown one, or
// an adaptive one on a grouped plan.
func checkMode(mode Mode, grouped bool) error {
	switch mode {
	case ModeFixed, ModeProgressive, ModeMicroAdaptive:
	default:
		return fmt.Errorf("progopt: unknown execution mode %d", int(mode))
	}
	if grouped && mode != ModeFixed {
		return fmt.Errorf("progopt: %s execution of grouped plans is not supported yet; use ModeFixed", mode)
	}
	return nil
}

// spec is the compiled query as the driver runs it under opts (their mode
// checked by checkMode), for Exec and for a served query alike: the optimizer
// options mapped and pointed at the engine's decision track, the per-core
// group tables and sort states attached.
func (e *Engine) spec(q *Query, opts ExecOptions) core.Spec {
	spec := core.Spec{Query: q.q, Mode: opts.Mode, Opt: opts.Progressive.coreOptions()}
	spec.Opt.Trace = e.optTrack()
	if q.group != nil {
		spec.Groups = q.group.tables
	}
	if q.sort != nil {
		spec.Sorts = q.sort.states
	}
	return spec
}

// toExecResult maps what the driver produced — for Exec, or for a served
// query — to the public type. The driver builds groups and sorted afresh for
// every run, so the result hands them out as they are.
func toExecResult(r exec.Result, groups []exec.Group, sorted []exec.SortedRow, st core.Stats) ExecResult {
	return ExecResult{
		Result: toResult(r),
		Groups: groups,
		Rows:   sorted,
		Stats:  toStats(st),
		Impl: ImplStats{
			BranchingVectors:  st.BranchingVectors,
			BranchFreeVectors: st.BranchFreeVectors,
			ImplSwitches:      st.ImplSwitches,
		},
	}
}

// optTrack returns the engine's optimizer decision track, nil when tracing is
// disabled.
func (e *Engine) optTrack() *trace.Track {
	if e.tr == nil {
		return nil
	}
	return e.tr.opt
}

// coreOptions maps Progressive to the driver options, applying the default
// interval.
func (p Progressive) coreOptions() core.Options {
	interval := p.Interval
	if interval <= 0 {
		interval = 10
	}
	return core.Options{ReopInterval: interval}
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
