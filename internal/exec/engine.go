package exec

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Aggregate computes a running float64 sum over qualifying tuples.
type Aggregate struct {
	// Cols are the input columns; the engine loads each per qualifying tuple.
	Cols []*columnar.Column
	// F computes the tuple's contribution to the sum.
	F func(row int) float64
	// CostInstr is the per-tuple arithmetic cost (default 3 if zero).
	CostInstr int
}

func (a *Aggregate) cost() int {
	if a.CostInstr > 0 {
		return a.CostInstr
	}
	return 3
}

// Query is a driving-table pipeline: an ordered list of filtering operators
// (predicates and FK joins) over one table, optionally aggregating the
// survivors. Ops order is the PEO the optimizer permutes.
type Query struct {
	// Table is the driving (probe-side) table.
	Table *columnar.Table
	// Ops is the evaluation order.
	Ops []Op
	// Agg, if non-nil, sums over qualifying tuples.
	Agg *Aggregate
}

// Validate checks that the query is runnable.
func (q *Query) Validate() error {
	if q.Table == nil {
		return fmt.Errorf("exec: query has no table")
	}
	if len(q.Ops) == 0 {
		return fmt.Errorf("exec: query has no operators")
	}
	for i, op := range q.Ops {
		if op == nil {
			return fmt.Errorf("exec: nil operator at position %d", i)
		}
	}
	return nil
}

// WithOrder returns a copy of the query whose operators are permuted: new
// position i holds old operator perm[i].
func (q *Query) WithOrder(perm []int) (*Query, error) {
	out := &Query{}
	if err := q.OrderInto(out, perm, make([]bool, len(q.Ops))); err != nil {
		return nil, err
	}
	return out, nil
}

// OrderInto is WithOrder into dst, reusing its operator slice, with seen
// (one flag per operator) as scratch: once dst has room it allocates nothing.
// On an invalid permutation dst is left partly written.
func (q *Query) OrderInto(dst *Query, perm []int, seen []bool) error {
	if len(perm) != len(q.Ops) || len(seen) != len(q.Ops) {
		return fmt.Errorf("exec: permutation length %d for %d ops", len(perm), len(q.Ops))
	}
	clear(seen)
	if cap(dst.Ops) < len(perm) {
		dst.Ops = make([]Op, 0, len(perm))
	}
	dst.Table, dst.Ops, dst.Agg = q.Table, dst.Ops[:0], q.Agg
	for _, p := range perm {
		if p < 0 || p >= len(q.Ops) || seen[p] {
			return fmt.Errorf("exec: invalid permutation %v", perm)
		}
		seen[p] = true
		dst.Ops = append(dst.Ops, q.Ops[p])
	}
	return nil
}

// OpNames returns the operator names in evaluation order.
func (q *Query) OpNames() []string {
	names := make([]string, len(q.Ops))
	for i, op := range q.Ops {
		names[i] = op.Name()
	}
	return names
}

// VectorResult reports one vector's execution.
type VectorResult struct {
	// Qualifying is the number of tuples that passed all operators.
	Qualifying int64
	// Sum is the aggregate contribution of the vector.
	Sum float64
}

// Result reports a full query execution.
type Result struct {
	// Qualifying is the output cardinality.
	Qualifying int64
	// Sum is the aggregate value.
	Sum float64
	// Cycles is the simulated cycle count consumed by the run.
	Cycles uint64
	// Millis is Cycles at the profile's clock.
	Millis float64
	// Counters is the PMU delta over the run.
	Counters pmu.Sample
	// Vectors is the number of vectors executed.
	Vectors int
}

// Engine executes queries vector-at-a-time on a simulated CPU. By default a
// vector runs as a batch-kernel pipeline over a reusable selection vector
// (see batch.go); SetScalar restores the seed's tuple-at-a-time row loop.
type Engine struct {
	cpu        *cpu.CPU
	vectorSize int
	scalar     bool
	// noFuse disables the fused batch pipeline (see fuse.go), keeping the
	// per-op EvalBatch path as the property-test oracle. Fused and unfused
	// runs are bit-identical in results, cycles, and every PMU counter.
	noFuse bool
	// selA/selB are the reusable selection-vector buffers of the batch
	// pipeline; mask is the branch-free batch kernel's qualification mask.
	selA, selB []int32
	mask       []bool
	// preds caches per-vector *Predicate type assertions of the scalar row
	// loop, so the per-(row, op) dispatch is a direct call for the common
	// operator kind instead of an interface call.
	preds []*Predicate
	// sortRun, when non-nil, collects every qualifying row into an attached
	// Top-K/OrderBy state (see sort.go). Drivers attach a fresh state per
	// run and detach it afterwards; the engine itself holds no sort state
	// across runs.
	sortRun *SortRun
	// stor, when non-nil, is the attached stored run's stream, whose zone-map
	// skip verdicts per vector this core applies (see storage.go). Same
	// lifecycle as sortRun.
	stor *Stream
	// opCounts, when non-nil, are the explicit counters ImplInstrumented
	// vectors maintain (see instrumented.go). Same lifecycle as sortRun.
	opCounts *OpCounts
	// tr, when non-nil, receives this core's execution spans (vectors,
	// operators, morsels) keyed on the core's simulated clock. Recording is a
	// pure observer — only Cycles() reads on the enabled path — so traced and
	// untraced runs are bit-identical; a nil track is the zero-overhead
	// disabled state.
	tr *trace.Track

	// Pads the struct to a multiple of 128 bytes: see the false-sharing layout
	// rule in DESIGN.md (pinned by TestLayoutNoFalseSharing).
	_ [104]byte
}

// NewEngine returns an engine with the given vector size (tuples per vector).
func NewEngine(c *cpu.CPU, vectorSize int) (*Engine, error) {
	if c == nil {
		return nil, fmt.Errorf("exec: nil CPU")
	}
	if vectorSize <= 0 {
		return nil, fmt.Errorf("exec: non-positive vector size %d", vectorSize)
	}
	return &Engine{cpu: c, vectorSize: vectorSize}, nil
}

// SetScalar switches between the batch-kernel pipeline (default, scalar ==
// false) and the tuple-at-a-time row loop of the seed engine. Both modes
// produce bit-identical results and identical PMU load/branch counts; only
// access interleaving (and therefore host wall-clock) differs.
func (e *Engine) SetScalar(scalar bool) { e.scalar = scalar }

// Scalar reports whether the engine runs the tuple-at-a-time row loop.
func (e *Engine) Scalar() bool { return e.scalar }

// SetFuse enables (default) or disables the fused batch pipeline: specialized
// Filter→FKJoin→aggregate kernels that retire each operator's branches as one
// outcome bitmask per vector instead of one call per row.
// Both settings produce bit-identical results, cycles, and PMU counters; the
// unfused path exists as the equivalence oracle. Ignored by the scalar row
// loop, which is its own reference semantics.
func (e *Engine) SetFuse(enable bool) { e.noFuse = !enable }

// Fused reports whether the batch pipeline runs its fused kernels.
func (e *Engine) Fused() bool { return !e.noFuse }

// MustEngine is NewEngine that panics on error.
func MustEngine(c *cpu.CPU, vectorSize int) *Engine {
	e, err := NewEngine(c, vectorSize)
	if err != nil {
		panic(err)
	}
	return e
}

// CPU exposes the engine's simulated core.
func (e *Engine) CPU() *cpu.CPU { return e.cpu }

// SetTrace attaches (or, with nil, detaches) the event track this simulated
// core's execution spans are recorded on. The track must have a single writer
// at any instant: attach per core, and only while the core is quiesced.
func (e *Engine) SetTrace(t *trace.Track) { e.tr = t }

// SetSortRun attaches (or, with nil, detaches) the order-by collector every
// qualifying row of subsequent vectors feeds. The caller owns the state's
// lifecycle: one fresh SortRun per core per run, detached after the
// barrier.
func (e *Engine) SetSortRun(r *SortRun) { e.sortRun = r }

// SetOpCounts attaches (or, with nil, detaches) the explicit counters every
// subsequent ImplInstrumented vector adds to. The caller owns them, as it
// owns a SortRun.
func (e *Engine) SetOpCounts(oc *OpCounts) { e.opCounts = oc }

// VectorSize returns tuples per vector.
func (e *Engine) VectorSize() int { return e.vectorSize }

// NumVectors returns how many vectors cover the query's table.
func (e *Engine) NumVectors(q *Query) int {
	n := q.Table.NumRows()
	return (n + e.vectorSize - 1) / e.vectorSize
}

// loopOverheadInstr is the per-tuple loop bookkeeping cost (increment,
// bounds arithmetic).
const loopOverheadInstr = 2

// checkVector validates the query and the [lo, hi) range.
func (e *Engine) checkVector(q *Query, lo, hi int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	n := q.Table.NumRows()
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("exec: vector [%d,%d) outside table of %d rows", lo, hi, n)
	}
	return nil
}

// RunVector executes rows [lo, hi) of the query in its current operator
// order, dispatching to the batch-kernel pipeline or the scalar row loop per
// the engine mode. Branch sites are operator positions; site len(Ops) is the
// loop-back branch.
func (e *Engine) RunVector(q *Query, lo, hi int) (VectorResult, error) {
	if err := e.checkVector(q, lo, hi); err != nil {
		return VectorResult{}, err
	}
	if e.skipVector(lo, hi) {
		if e.tr != nil {
			e.tr.Instant("skip", e.cpu.Cycles(), trace.Int("lo", lo), trace.Int("rows", hi-lo))
		}
		return VectorResult{}, nil
	}
	if e.tr == nil {
		if e.scalar {
			return e.runVectorScalar(q, lo, hi), nil
		}
		return e.runVectorBatch(q, lo, hi)
	}
	t0 := e.cpu.Cycles()
	var vr VectorResult
	var err error
	if e.scalar {
		vr = e.runVectorScalar(q, lo, hi)
	} else {
		vr, err = e.runVectorBatch(q, lo, hi)
	}
	if err != nil {
		return vr, err
	}
	e.tr.Span("vector", t0, e.cpu.Cycles(),
		trace.Int("lo", lo), trace.Int("rows", hi-lo), trace.Int64("qual", vr.Qualifying))
	return vr, nil
}

func (e *Engine) runVectorScalar(q *Query, lo, hi int) VectorResult {
	c := e.cpu
	ops := q.Ops
	loopSite := len(ops)
	// Hoist the operator type dispatch out of the row loop: predicates (the
	// common case) evaluate through a direct call. Simulation order and
	// effects per (row, op) are untouched.
	if cap(e.preds) < len(ops) {
		// At least a 128-byte sector: rewritten every vector, it must not
		// share a cache line with another core's.
		e.preds = make([]*Predicate, 0, max(len(ops), 16))
	}
	preds := e.preds[:0]
	for _, op := range ops {
		p, _ := op.(*Predicate)
		preds = append(preds, p)
	}
	e.preds = preds
	// With a site-independent predictor the always-taken back-edge branch can
	// be retired in one batched call after the loop: its observations commute
	// with the operator sites' and every counter is an order-independent sum.
	// Global-history predictors keep the interleaved per-row retirement — the
	// scalar loop is the reference semantics.
	deferEdge := c.SiteIndependentPredictor()
	var res VectorResult
	for row := lo; row < hi; row++ {
		pass := true
		for si := 0; si < len(ops); si++ {
			var ok bool
			if p := preds[si]; p != nil {
				ok = p.Eval(c, row)
			} else {
				ok = ops[si].Eval(c, row)
			}
			c.CondBranch(si, !ok)
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			if q.Agg != nil {
				for _, col := range q.Agg.Cols {
					c.Load(col.Addr(row))
				}
				c.Exec(q.Agg.cost())
				res.Sum += q.Agg.F(row)
			}
			if r := e.sortRun; r != nil {
				for _, k := range r.s.Keys {
					c.Load(k.Col.Addr(row))
				}
				r.AddOne(c, row)
			}
			res.Qualifying++
		}
		if !deferEdge {
			c.Exec(loopOverheadInstr)
			c.CondBranch(loopSite, true)
		}
	}
	if deferEdge {
		c.Exec(loopOverheadInstr * (hi - lo))
		c.CondBranchN(loopSite, true, hi-lo)
	}
	return res
}

// Run executes the whole table vector by vector under a fixed operator order
// and returns totals. Queries run through core.Run; Run stays for the
// benchmark's exec.run probe, which times the bare engine loop.
func (e *Engine) Run(q *Query) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	start := e.cpu.Sample()
	startCycles := e.cpu.Cycles()
	var out Result
	n := q.Table.NumRows()
	for lo := 0; lo < n; lo += e.vectorSize {
		vr, err := e.RunVector(q, lo, min(lo+e.vectorSize, n))
		if err != nil {
			return Result{}, err
		}
		out.Qualifying += vr.Qualifying
		out.Sum += vr.Sum
		out.Vectors++
	}
	out.Cycles = e.cpu.Cycles() - startCycles
	out.Millis = e.cpu.MillisOf(out.Cycles)
	out.Counters = e.cpu.Sample().Sub(start)
	return out, nil
}

// BindQuery binds the query's table columns and any join filter columns that
// are still unbound into the CPU's address space, and leaves the core cold
// (the paper's scans never reuse data between runs anyway). A predicate or
// join filter whose comparison is none of LE..EQ is rejected with an
// *UnknownCmpOpError before anything is bound: the kernels assume the five.
// Binding state is tracked explicitly per column (columnar.Column.Bound), so
// a column legitimately bound at address 0 is never re-bound.
func (e *Engine) BindQuery(q *Query) error {
	if err := checkCmpOps(q); err != nil {
		return err
	}
	if err := q.Table.BindAll(e.cpu); err != nil {
		return err
	}
	for _, op := range q.Ops {
		j, ok := op.(*FKJoin)
		if !ok {
			continue
		}
		cols := append([]*columnar.Column(nil), j.Via...)
		if j.Filter != nil {
			cols = append(cols, j.Filter.Col)
		}
		for _, col := range cols {
			if col.Bound() {
				continue
			}
			base, err := e.cpu.Alloc(col.SizeBytes())
			if err != nil {
				return err
			}
			col.Bind(base)
		}
	}
	e.cpu.Cold()
	return nil
}
