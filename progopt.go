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
	// DisablePrefetch turns the simulated L2 streamer off.
	DisablePrefetch bool
	// Workers is the number of simulated cores executing queries with the
	// morsel-driven scheduler (default 1 = serial). Every Exec mode honors
	// it — fixed, progressive, micro-adaptive, and grouped runs all report
	// the makespan (slowest core) and the PMU counters merged across cores,
	// with results bit-identical across worker counts. Of the deprecated run
	// methods only RunMicroAdaptive does not: it keeps its single-core
	// contract and returns an error when Workers > 1.
	Workers int
	// ScalarExec forces the seed's tuple-at-a-time row loop instead of the
	// batch-kernel pipeline (for comparison; PMU load/branch counts and
	// results are identical either way).
	ScalarExec bool
	// NoFuse disables the fused filter→join→aggregate batch kernels and runs
	// the per-operator kernel pipeline instead — the equivalence oracle.
	// Results, cycles, and every PMU counter are bit-identical either way;
	// only host wall-clock differs. Ignored under ScalarExec, which is its
	// own reference semantics.
	NoFuse bool
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
	cpu *cpu.CPU
	eng *exec.Engine
	// par is the morsel-driven multi-core executor, nil when Workers <= 1.
	par     *exec.Parallel
	workers int
	scalar  bool
	// stcfg is the engine's storage configuration, nil for in-RAM engines;
	// stored caches each data set's stored driving table by generation.
	stcfg  *StorageConfig
	stored map[uint64]*storedTable
	// tr is the engine's event recorder, nil when tracing is disabled.
	tr *Trace
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
	if cfg.DisablePrefetch {
		prof.Hierarchy.PrefetchDisabled = true
	}
	c, err := cpu.New(prof)
	if err != nil {
		return nil, err
	}
	e, err := exec.NewEngine(c, cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	e.SetScalar(cfg.ScalarExec)
	e.SetFuse(!cfg.NoFuse)
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	var par *exec.Parallel
	if workers > 1 {
		par, err = exec.NewParallel(prof, workers, cfg.VectorSize)
		if err != nil {
			return nil, err
		}
		par.SetScalar(cfg.ScalarExec)
		par.SetFuse(!cfg.NoFuse)
	}
	stcfg := cfg.Storage
	if stcfg != nil {
		// Copy so later caller mutation cannot skew compiled plans.
		cp := *stcfg
		stcfg = &cp
	}
	var tr *Trace
	if cfg.Trace != nil {
		tr = newTrace(cfg.Trace, workers)
		// Per-core tracks attach to whichever cores will execute queries:
		// the parallel pool when one exists, the serial engine otherwise.
		if par != nil {
			par.SetTrace(tr.cores)
		} else {
			e.SetTrace(tr.cores[0])
		}
	}
	return &Engine{cpu: c, eng: e, par: par, workers: workers, scalar: cfg.ScalarExec, stcfg: stcfg, tr: tr}, nil
}

// Workers returns the number of simulated cores the engine runs queries on.
func (e *Engine) Workers() int { return e.workers }

// Close releases the multi-core executor's host worker goroutines, if any
// were started (multi-core hosts only; see exec.Parallel.Close). The engine
// remains usable afterwards.
func (e *Engine) Close() {
	if e.par != nil {
		e.par.Close()
	}
}

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
	return &Dataset{d: d, gen: datasetGen.Add(1)}, nil
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
// (or the deprecated Build* methods) and executed by Engine.Exec.
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
	return &Query{q: qo, group: q.group, sort: q.sort, sumExpr: q.sumExpr, storage: q.storage}, nil
}

// BuildQ6 builds TPC-H Query 6 (five reorderable predicates) over the data
// set and binds it into the engine's address space.
//
// Deprecated: Q6 is an ordinary plan; build it with Scan and Compile. This
// wrapper compiles exactly the plan below.
func (e *Engine) BuildQ6(d *Dataset) (*Query, error) {
	return e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpGE, int64(tpch.Q6ShipdateLo())).Label("shipdate>=lo").
		Filter("l_shipdate", CmpLT, int64(tpch.Q6ShipdateHi())).Label("shipdate<hi").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Sum("l_extendedprice * l_discount"))
}

// BuildQ6Shipdate builds the introduction's modified Q6 (four predicates)
// with the given shipdate cutoff.
//
// Deprecated: build the plan with Scan and Compile.
func (e *Engine) BuildQ6Shipdate(d *Dataset, cutoff int32) (*Query, error) {
	return e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(cutoff)).Label("shipdate<=v").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Sum("l_extendedprice * l_discount"))
}

// Cmp is a predicate comparison operator.
type Cmp string

// Comparison operators for Predicate.
const (
	CmpLE Cmp = "<="
	CmpLT Cmp = "<"
	CmpGE Cmp = ">="
	CmpGT Cmp = ">"
	CmpEQ Cmp = "="
)

// Predicate specifies one selection predicate for the deprecated BuildScan
// and BuildPipeline builders. New code passes bounds directly to
// Plan.Filter.
type Predicate struct {
	// Table must be empty or "lineitem": scans always drive from lineitem,
	// and a predicate on another table's column would index that shorter
	// column with lineitem row ids. Historically accepted "orders"/"part"
	// values are now rejected with an error.
	Table string
	// Column is the column name (e.g. "l_quantity").
	Column string
	// Op is the comparison.
	Op Cmp
	// Int is the bound for integer/date columns; Float for float columns.
	Int   int64
	Float float64
	// ExtraCostInstr models an expensive predicate (UDF, string match).
	ExtraCostInstr int
}

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

// scanPlan translates legacy Predicate specs into plan filter steps.
func scanPlan(preds []Predicate) (*Plan, error) {
	p := Scan("lineitem")
	for _, pr := range preds {
		switch pr.Table {
		case "", "lineitem":
		case "orders", "part":
			return nil, fmt.Errorf(
				"progopt: predicate on %s.%s: cross-table predicates are rejected (they would read the build-side column with lineitem row ids); use Plan.Join",
				pr.Table, pr.Column)
		default:
			return nil, fmt.Errorf("progopt: unknown table %q", pr.Table)
		}
		p.legacyFilter(pr.Column, pr.Op, pr.Int, pr.Float, pr.ExtraCostInstr)
	}
	return p, nil
}

// BuildScan builds a multi-predicate selection over lineitem with an
// optional sum(l_extendedprice*l_discount) aggregate.
//
// Deprecated: build the plan with Scan, Filter, and Sum, then Compile.
func (e *Engine) BuildScan(d *Dataset, preds []Predicate, withAgg bool) (*Query, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("progopt: scan needs at least one predicate")
	}
	p, err := scanPlan(preds)
	if err != nil {
		return nil, err
	}
	if withAgg {
		p.Sum("l_extendedprice * l_discount")
	}
	return e.Compile(d, p)
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

// Run executes the query with a fixed operator order (the baseline "common
// execution pattern") from a cold hardware state. With Workers > 1 the
// driving table is consumed as morsels by all cores; the result's Cycles and
// Millis are the makespan and Counters the merged per-core PMU deltas.
//
// Deprecated: use Exec with ModeFixed, which this wrapper forwards to.
func (e *Engine) Run(q *Query) (Result, error) {
	r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		return Result{}, err
	}
	return r.Result, nil
}

// Progressive configures progressive optimization.
type Progressive struct {
	// Interval is the number of vectors between optimization cycles
	// (default 10, the paper's best setting).
	Interval int
	// DisableValidation skips the reorder validation step (ablation).
	DisableValidation bool
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
	// measured against, and the optimization points the back-off sat out.
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
	// Counters holds the paper-group PMU delta by perf-style event name.
	Counters map[string]uint64
	// Sels is the selectivity estimate in current-order space.
	Sels []float64
}

// RunProgressive executes the query with progressive re-optimization from a
// cold hardware state. With Workers > 1 re-optimization runs at morsel-block
// granularity: every block spans Interval vectors per core, the per-core PMU
// deltas are merged, and the estimator inverts the cost models over the
// aggregate (see core.RunAdaptive).
//
// Deprecated: use Exec with ModeProgressive, which this wrapper forwards to.
func (e *Engine) RunProgressive(q *Query, p Progressive) (Result, Stats, error) {
	r, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: p})
	if err != nil {
		return Result{}, Stats{}, err
	}
	return r.Result, r.Stats, nil
}

// MicroAdaptiveStats extends Stats with implementation-choice telemetry.
type MicroAdaptiveStats struct {
	Stats
	// BranchingVectors and BranchFreeVectors count vectors per scan
	// implementation; ImplSwitches counts changes.
	BranchingVectors, BranchFreeVectors, ImplSwitches int
}

// RunMicroAdaptive executes the query with progressive re-optimization plus
// micro-adaptive implementation choice: each optimization cycle also decides
// whether upcoming vectors run the branching (short-circuiting) or the
// branch-free (predicated) scan, from the counter-estimated selectivities.
//
// Its stats contract is single-core: it returns an error when Config.Workers
// exceeds 1 rather than reporting single-core cycle counts next to
// multi-core makespans. Use Exec with ModeMicroAdaptive for morsel-driven
// micro-adaptive execution.
//
// Deprecated: use Exec with ModeMicroAdaptive, which this wrapper forwards
// to on single-core engines.
func (e *Engine) RunMicroAdaptive(q *Query, p Progressive) (Result, MicroAdaptiveStats, error) {
	if e.workers > 1 {
		return Result{}, MicroAdaptiveStats{}, fmt.Errorf(
			"progopt: RunMicroAdaptive is single-core only (its cycle counts are not makespans); with Workers = %d use Exec(q, ExecOptions{Mode: ModeMicroAdaptive})",
			e.workers)
	}
	r, err := e.Exec(q, ExecOptions{Mode: ModeMicroAdaptive, Progressive: p})
	if err != nil {
		return Result{}, MicroAdaptiveStats{}, err
	}
	return r.Result, MicroAdaptiveStats{
		Stats:             r.Stats,
		BranchingVectors:  r.Impl.BranchingVectors,
		BranchFreeVectors: r.Impl.BranchFreeVectors,
		ImplSwitches:      r.Impl.ImplSwitches,
	}, nil
}

// EstimateSelectivities runs one estimation cycle offline: it executes a
// single vector of the query, samples the four paper counters, and inverts
// the cost models. Exposed so applications can inspect the estimator
// directly (see examples/skew_detection).
func (e *Engine) EstimateSelectivities(q *Query) ([]float64, error) {
	n := q.q.Table.NumRows()
	vs := e.eng.VectorSize()
	if n < vs {
		vs = n
	}
	before := e.cpu.Sample()
	if _, err := e.eng.RunVector(q.q, 0, vs); err != nil {
		return nil, err
	}
	delta := e.cpu.Sample().Sub(before)
	sample := core.SampleFromPMU(delta, vs)
	widths := make([]int, len(q.q.Ops))
	for i, op := range q.q.Ops {
		widths[i] = op.Width()
	}
	prof := e.cpu.Profile()
	est, err := core.EstimateSelectivities(sample, core.EstimatorConfig{
		Widths:   widths,
		Geometry: cacheGeometry(prof),
	})
	if err != nil {
		return nil, err
	}
	return est.Sels, nil
}
