package progopt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/branch"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

// Arch names the simulated branch-predictor microarchitecture.
type Arch string

// Supported architectures (see internal/hw/branch for the models).
const (
	ArchDefault     Arch = ""
	ArchNehalem     Arch = "nehalem"
	ArchSandyBridge Arch = "sandy-bridge"
	ArchIvyBridge   Arch = "ivy-bridge"
	ArchBroadwell   Arch = "broadwell"
	ArchAMD         Arch = "amd"
)

// Config configures an Engine.
type Config struct {
	// VectorSize is tuples per execution vector (default 2048).
	VectorSize int
	// Arch selects the simulated branch predictor (default Ivy Bridge, the
	// paper's evaluation machine).
	Arch Arch
	// Workers is the number of simulated cores executing queries with the
	// morsel-driven scheduler (default 1 = serial). Every Exec mode honors
	// it — fixed, progressive, micro-adaptive, and grouped runs all report
	// the makespan (slowest core) and the PMU counters merged across cores,
	// with results bit-identical across worker counts.
	Workers int
	// Storage, when non-nil, executes queries over the stored (PCOL v2)
	// image of the driving table, priced through a simulated storage tier
	// below DRAM. See StorageConfig.
	Storage *StorageConfig
	// Trace, when non-nil, records execution spans, optimizer decisions, and
	// storage-tier events on the simulated clock, exportable as Chrome
	// trace-event JSON (Perfetto). A pure observer: traced and untraced runs
	// are bit-identical. See TraceOptions and Engine.Trace.
	Trace *TraceOptions
}

// Engine is the public facade: one or more simulated cores plus the
// vectorized query engine and the progressive optimizer.
type Engine struct {
	// par is the morsel-driven executor every query runs on: Config.Workers
	// cores, one at Workers 1. Its core 0 assigns every address a compiled
	// query touches (core0).
	par *exec.Parallel
	// stcfg is the engine's storage configuration, nil for in-RAM engines;
	// stored caches each data set's stored driving table by generation.
	stcfg  *StorageConfig
	stored map[uint64]*storedTable
	// tr is the engine's event recorder, nil when tracing is disabled.
	tr *Trace
	// run drives every Exec on par.
	run *core.Run
}

// New builds an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.VectorSize <= 0 {
		cfg.VectorSize = 2048
	}
	prof := cpu.ScaledXeon()
	if cfg.Arch != ArchDefault {
		prof = cpu.ForArch(branch.Arch(cfg.Arch))
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	par, err := exec.NewParallel(prof, workers, cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	stcfg := cfg.Storage
	if stcfg != nil {
		// Copy so later caller mutation cannot skew compiled plans.
		cp := *stcfg
		stcfg = &cp
	}
	var tr *Trace
	if cfg.Trace != nil {
		tr = newTrace(workers)
		par.SetTrace(tr.cores)
	}
	return &Engine{par: par, stcfg: stcfg, tr: tr, run: core.NewRun(par)}, nil
}

// core0 is the pool's first core: e.par.Alloc and e.par.BindQuery reserve
// and bind through it, the engine reads its profile and clock, and
// EstimateSelectivities runs on it.
func (e *Engine) core0() *exec.Engine { return e.par.Engines()[0] }

// millis converts simulated cycles to milliseconds at the engine's clock.
func (e *Engine) millis(cycles uint64) float64 { return e.core0().CPU().MillisOf(cycles) }

// Workers returns the number of simulated cores the engine runs queries on.
func (e *Engine) Workers() int { return e.par.Workers() }

// Close releases the multi-core executor's host worker goroutines, if any
// were started (multi-core hosts only; see exec.Parallel.Close). The engine
// remains usable afterwards.
func (e *Engine) Close() { e.par.Close() }

// Ordering selects the physical row order of a generated TPC-H data set.
type Ordering string

// Row orderings (the paper's Figure 13 axis plus the bulk-load default).
const (
	// OrderNatural is dbgen bulk-load order: weakly clustered shipdate,
	// lineitem co-clustered with orders.
	OrderNatural Ordering = "natural"
	// OrderSorted sorts lineitem by shipdate.
	OrderSorted Ordering = "sorted"
	// OrderClustered shuffles within shipdate months.
	OrderClustered Ordering = "clustered"
	// OrderRandom fully shuffles rows.
	OrderRandom Ordering = "random"
)

// Dataset wraps a generated TPC-H data set.
type Dataset struct {
	d *tpch.Dataset
	// gen is the data-set generation counter: every generated data set gets
	// a fresh value, and plan fingerprints include it, so a workload
	// server's caches never serve a plan compiled against different data.
	gen uint64
	// encMu guards encCache, the per-block-size PCOL v2 encodings of the
	// lineitem table shared by storage-backed engines and experiments.
	encMu    sync.Mutex
	encCache map[int]*columnar.EncodedTable
}

// datasetGen issues data-set generation numbers.
var datasetGen atomic.Uint64

// newDataset wraps a data set under a fresh generation — the only way a
// Dataset is made, so no copy or reordering can share another's plans.
func newDataset(d *tpch.Dataset) *Dataset {
	return &Dataset{d: d, gen: datasetGen.Add(1)}
}

// GenerateTPCH produces a TPC-H-shaped data set with the given lineitem
// count and row ordering.
func (e *Engine) GenerateTPCH(lineitems int, seed int64, order Ordering) (*Dataset, error) {
	d, err := tpch.Generate(tpch.Config{Lineitems: lineitems, Seed: seed})
	if err != nil {
		return nil, err
	}
	switch order {
	case OrderNatural, "":
	case OrderSorted:
		d = d.ReorderLineitem(tpch.OrderingShipdateSorted, seed+1)
	case OrderClustered:
		d = d.ReorderLineitem(tpch.OrderingClusteredMonth, seed+1)
	case OrderRandom:
		d = d.ReorderLineitem(tpch.OrderingRandom, seed+1)
	default:
		return nil, fmt.Errorf("progopt: unknown ordering %q", order)
	}
	return newDataset(d), nil
}

// Lineitems returns the lineitem row count.
func (d *Dataset) Lineitems() int { return d.d.Lineitem.NumRows() }

// Generation returns the data-set generation counter, part of every plan
// fingerprint: two data sets never share a generation, even when generated
// with identical parameters, so cached plans cannot outlive their data.
func (d *Dataset) Generation() uint64 { return d.gen }

// ShipdateCutoff returns a shipdate bound hitting the given selectivity.
func (d *Dataset) ShipdateCutoff(sel float64) int32 { return d.d.ShipdateCutoff(sel) }

// Query wraps a compiled, executable query plan whose operator order the
// progressive optimizer may permute. Queries are produced by Engine.Compile
// and executed by Engine.Exec.
type Query struct {
	q *exec.Query
	// group is the compiled grouped aggregation, nil for plain scans.
	group *groupExec
	// sort is the compiled OrderBy/Limit, nil for unordered plans.
	sort *sortExec
	// sumExpr is the plan's aggregate expression ("" = none), kept for
	// Explain.
	sumExpr string
	// served records how the most recent Server.Submit obtained this query
	// (plan-cache hit, feedback warm start); nil when the query has never
	// been served. Reported by Explain. Atomic because the plan cache
	// shares compiled queries across concurrently-waited submissions.
	served atomic.Pointer[servedProvenance]
	// traced holds the span summary of this query's most recent traced Exec
	// (nil when it never ran under tracing). Reported by Explain.
	traced atomic.Pointer[[]TraceAgg]
	// storage is the compiled stored-scan state, nil when the engine reads
	// from RAM. Zone-map pruning is order-independent, so reordered queries
	// share it.
	storage *storedQuery
	// joins describes the plan's resolved join-graph edges (nil for plans
	// without JoinOn). Reported by Explain.
	joins []JoinEdgeExplain
}

// NumOps returns the number of reorderable operators.
func (q *Query) NumOps() int { return len(q.q.Ops) }

// OpNames returns operator names in the current evaluation order.
func (q *Query) OpNames() []string { return q.q.OpNames() }

// WithOrder returns the query with operators permuted (position i takes old
// operator perm[i]).
func (q *Query) WithOrder(perm []int) (*Query, error) {
	qo, err := q.q.WithOrder(perm)
	if err != nil {
		return nil, err
	}
	return &Query{q: qo, group: q.group, sort: q.sort, sumExpr: q.sumExpr, storage: q.storage, joins: q.joins}, nil
}

// Cmp is a predicate comparison operator.
type Cmp string

// Comparison operators for Plan.Filter.
const (
	CmpLE Cmp = "<="
	CmpLT Cmp = "<"
	CmpGE Cmp = ">="
	CmpGT Cmp = ">"
	CmpEQ Cmp = "="
)

// cmpOf maps the public comparison to the executor's.
func cmpOf(c Cmp) (exec.CmpOp, error) {
	switch c {
	case CmpLE:
		return exec.LE, nil
	case CmpLT:
		return exec.LT, nil
	case CmpGE:
		return exec.GE, nil
	case CmpGT:
		return exec.GT, nil
	case CmpEQ:
		return exec.EQ, nil
	default:
		return 0, fmt.Errorf("progopt: unknown comparison %q", c)
	}
}

// Result reports a query execution.
type Result struct {
	// Qualifying is the output cardinality.
	Qualifying int64
	// Sum is the aggregate value (0 without an aggregate).
	Sum float64
	// Cycles is the simulated cycle cost.
	Cycles uint64
	// Millis is Cycles at the simulated clock.
	Millis float64
	// Counters holds the PMU deltas by perf-style event name.
	Counters map[string]uint64
}

func toResult(r exec.Result) Result {
	counters := make(map[string]uint64, pmu.NumEvents)
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		counters[ev.String()] = r.Counters.Get(ev)
	}
	return Result{
		Qualifying: r.Qualifying,
		Sum:        r.Sum,
		Cycles:     r.Cycles,
		Millis:     r.Millis,
		Counters:   counters,
	}
}

// Progressive configures progressive optimization.
type Progressive struct {
	// Interval is the number of vectors between optimization cycles
	// (default 10, the paper's best setting).
	Interval int
}

// Stats reports what the progressive optimizer did.
type Stats struct {
	// Optimizations, Reorders, and Reverts count optimizer actions.
	Optimizations, Reorders, Reverts int
	// FinalOrder is the final operator permutation.
	FinalOrder []int
	// LastEstimate is the final selectivity estimate per operator position.
	LastEstimate []float64
	// ConvergedAtCycles is the run's cycle clock at the last plan change
	// the optimizer applied — the cost of finding the final order. Zero
	// means the initial order was never changed, the signature of a
	// feedback-cache warm start that began at the converged order.
	ConvergedAtCycles uint64
	// Samples is the per-optimization-cycle observation series (bounded to
	// the most recent 512): the PMU evidence each sampling point saw and the
	// selectivity estimate it produced, on the run's cycle clock. The trace's
	// optimizer track and the ext-* convergence figures render this same
	// series.
	Samples []SampleObs
	// Ledger is what re-optimizing cost the run: cycles charged to sampling
	// and estimation and to recompiles, cycles spent in steps whose order
	// validation rolled back and their excess over the step they were
	// measured against, and the optimization points the back-offs sat out.
	Ledger Ledger
}

// Ledger is the decision ledger of one adaptive run (see Stats.Ledger); a
// server sums it over its completed queries (ServerStats.Reopt).
type Ledger = core.Ledger

// SampleObs is one progressive-sampling observation retained on Stats.
type SampleObs struct {
	// Cycles is the sampling time relative to the run's start.
	Cycles uint64
	// Tuples is how many tuples the sampled PMU delta covers.
	Tuples int
	// Counters holds the paper-group PMU delta.
	Counters SampleCounters
	// Sels is the selectivity estimate in current-order space.
	Sels []float64
}

// SampleCounters is the PMU delta of one sampling observation: the four
// events the paper's optimizer samples (§4.2).
type SampleCounters struct {
	// BrNotTaken counts retired not-taken conditional branches; BrMPTaken
	// and BrMPNotTaken count mispredicted ones by their actual direction.
	BrNotTaken, BrMPTaken, BrMPNotTaken uint64
	// L3Access counts L3 accesses, demand and prefetch.
	L3Access uint64
}

// Map returns the counters by perf-style event name, the keys
// Result.Counters uses.
func (c SampleCounters) Map() map[string]uint64 {
	return map[string]uint64{
		pmu.BrNotTaken.String():   c.BrNotTaken,
		pmu.BrMPTaken.String():    c.BrMPTaken,
		pmu.BrMPNotTaken.String(): c.BrMPNotTaken,
		pmu.L3Access.String():     c.L3Access,
	}
}

// EstimateSelectivities runs one estimation cycle offline: it executes a
// single vector of the query from a cold core, samples the four paper
// counters, and inverts the cost models. Exposed so applications can inspect
// the estimator directly (see ExampleEngine_EstimateSelectivities).
func (e *Engine) EstimateSelectivities(q *Query) ([]float64, error) {
	w := e.core0()
	vs := min(q.q.Table.NumRows(), w.VectorSize())
	c := w.CPU()
	c.Cold()
	before := c.Sample()
	if _, err := w.RunVector(q.q, 0, vs); err != nil {
		return nil, err
	}
	delta := c.Sample().Sub(before)
	sample := core.SampleFromPMU(delta, vs)
	widths := make([]int, len(q.q.Ops))
	for i, op := range q.q.Ops {
		widths[i] = op.Width()
	}
	est, err := core.EstimateSelectivities(sample, core.EstimatorConfig{
		Widths:   widths,
		Geometry: core.L3Geometry(c.Profile()),
	})
	if err != nil {
		return nil, err
	}
	return est.Sels, nil
}
