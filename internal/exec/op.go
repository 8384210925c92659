// Package exec implements the vectorized query execution engine: a
// multi-predicate branching scan (the compiled selection loop of §2.1),
// foreign-key join operators with locality-faithful probe patterns, sum
// aggregation, and an enumerator-instrumented scan variant for the overhead
// comparison of §5.7. Every column access and every conditional branch is
// mirrored into the simulated CPU, so the PMU counters the progressive
// optimizer samples reflect exactly what real hardware would count.
package exec

import (
	"fmt"
	"math"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
)

// Op is one filtering operator in a query's evaluation order. Operators come
// in two forms: the tuple-at-a-time Eval (the seed engine's interpreted loop,
// where the engine retires the conditional branch that follows each
// evaluation) and the batch-kernel EvalBatch, which processes a whole
// selection vector in one call, amortizing dispatch. Both forms perform the
// same loads, retire the same instructions, and produce the same per-site
// branch-outcome streams, so PMU event counts are identical; only the
// interleaving of accesses across operators differs.
type Op interface {
	// Name labels the operator in plans and reports.
	Name() string
	// Eval performs the operator's loads and computation for row on c and
	// reports whether the tuple survives. The engine retires the conditional
	// branch that follows the evaluation — branch sites belong to positions
	// in the compiled loop.
	Eval(c *cpu.CPU, row int) bool
	// EvalBatch evaluates every row in sel (ascending table row ids),
	// retiring the conditional branch at the given site per evaluation, and
	// appends the survivors to out (length 0, capacity >= len(sel)),
	// returning the survivor selection. In batch form the operator retires
	// its own branch so the whole vector is processed in one call.
	EvalBatch(c *cpu.CPU, site int, sel, out []int32) []int32
	// Width returns the byte width of the operator's primary input column
	// (used by the cost models).
	Width() int
}

// CmpOp is a comparison operator for predicates.
type CmpOp int

// Comparison operators.
const (
	// LE is <=.
	LE CmpOp = iota
	// LT is <.
	LT
	// GE is >=.
	GE
	// GT is >.
	GT
	// EQ is ==.
	EQ
)

// String returns the operator's SQL spelling.
func (o CmpOp) String() string {
	switch o {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "="
	}
	return fmt.Sprintf("cmp(%d)", int(o))
}

// UnknownCmpOpError reports a predicate or join filter whose comparison is
// not one of LE..EQ.
type UnknownCmpOpError struct {
	// Operator names the operator that carries the comparison.
	Operator string
	// Op is the offending value.
	Op CmpOp
}

func (e *UnknownCmpOpError) Error() string {
	return fmt.Sprintf("exec: operator %q has unknown comparison %d", e.Operator, int(e.Op))
}

// checkCmpOps is the one place a comparison outside LE..EQ is turned away;
// every kernel's default arm relies on it.
func checkCmpOps(q *Query) error {
	for _, op := range q.Ops {
		var p *Predicate
		switch t := op.(type) {
		case *Predicate:
			p = t
		case *FKJoin:
			p = t.Filter
		}
		if p != nil && (p.Op < LE || p.Op > EQ) {
			return &UnknownCmpOpError{Operator: op.Name(), Op: p.Op}
		}
	}
	return nil
}

// Predicate compares one column against a constant. Integer-kind columns
// (Int64, Int32, Date) compare against I; Float64 columns against F.
type Predicate struct {
	// Col is the input column; it must be bound before execution.
	Col *columnar.Column
	// Op is the comparison.
	Op CmpOp
	// I is the bound for integer-kind columns.
	I int64
	// F is the bound for Float64 columns.
	F float64
	// ExtraCostInstr models an expensive predicate (e.g. a string match or
	// UDF): additional instructions retired per evaluation.
	ExtraCostInstr int
	// Label overrides the generated name.
	Label string
	// ScanBase/ScanWidth, when ScanWidth > 0, redirect the predicate's load
	// simulation to a packed (encoded) image of the column at ScanBase with
	// ScanWidth bytes per row — the compressed-scan mode of a stored table,
	// where the kernel compares against dictionary codes or
	// frame-of-reference deltas and therefore streams the narrower image
	// through the cache hierarchy. Host-side comparisons stay on the decoded
	// slices (the encodings are order- and equality-exact per block, so
	// outcomes are identical); only the simulated address stream changes.
	ScanBase  uint64
	ScanWidth int
}

// scanLayout returns the (base, width) the predicate's loads stream through
// the simulated hierarchy: the packed image when compressed scanning is
// configured, the decoded column otherwise.
func (p *Predicate) scanLayout() (uint64, uint64) {
	if p.ScanWidth > 0 {
		return p.ScanBase, uint64(p.ScanWidth)
	}
	return p.Col.Base(), uint64(p.Col.Width())
}

// Name implements Op.
func (p *Predicate) Name() string {
	if p.Label != "" {
		return p.Label
	}
	if p.Col.Kind() == columnar.Float64 {
		return fmt.Sprintf("%s %s %g", p.Col.Name(), p.Op, p.F)
	}
	return fmt.Sprintf("%s %s %d", p.Col.Name(), p.Op, p.I)
}

// Width implements Op.
func (p *Predicate) Width() int { return p.Col.Width() }

// Eval implements Op: one load of the column value plus any extra cost, then
// the comparison (the compare+jump instructions are charged by the engine's
// branch step). The value fetch goes through the raw typed slice for the
// column's kind and the comparison through a small inlinable helper — this
// runs once per (row, operator) in the scalar engine.
func (p *Predicate) Eval(c *cpu.CPU, row int) bool {
	base, w := p.scanLayout()
	c.Load(base + uint64(row)*w)
	if p.ExtraCostInstr > 0 {
		c.Exec(p.ExtraCostInstr)
	}
	switch p.Col.Kind() {
	case columnar.Float64:
		return cmp(p.Op, p.Col.F64()[row], p.F)
	case columnar.Int64:
		return cmp(p.Op, p.Col.I64()[row], p.I)
	default: // Int32, Date
		return cmp(p.Op, int64(p.Col.I32()[row]), p.I)
	}
}

// cmp applies one comparison operator; small enough to inline into the
// per-row evaluation.
func cmp[T int64 | float64](op CmpOp, v, bound T) bool {
	switch op {
	case LE:
		return v <= bound
	case LT:
		return v < bound
	case GE:
		return v >= bound
	case GT:
		return v > bound
	case EQ:
		return v == bound
	}
	// Unreachable: BindQuery rejects an Op outside LE..EQ.
	panic(fmt.Sprintf("exec: unknown comparison %d", int(op)))
}

// EvalBatch implements Op: the batch kernel hoists the column-kind and
// comparison dispatch out of the row loop, then streams the selection
// vector through a monomorphic compare-and-branch loop.
func (p *Predicate) EvalBatch(c *cpu.CPU, site int, sel, out []int32) []int32 {
	if p.ExtraCostInstr > 0 {
		c.Exec(p.ExtraCostInstr * len(sel))
	}
	base, w := p.scanLayout()
	selLoads(c, sel, base, w)
	switch p.Col.Kind() {
	case columnar.Float64:
		return predLoop(c, site, sel, out, p.Col.F64(), p.Op, p.F)
	case columnar.Int64:
		return predLoop(c, site, sel, out, p.Col.I64(), p.Op, p.I)
	default: // Int32, Date
		if p.I > math.MaxInt32 || p.I < math.MinInt32 {
			return constLoop(c, site, sel, out, wideBoundPasses(p.Op, p.I))
		}
		return predLoop(c, site, sel, out, p.Col.I32(), p.Op, int32(p.I))
	}
}

// selLoads simulates the column loads of one predicate batch kernel over the
// selection. Hoisting the loads ahead of the compare/branch phase is
// count-exact (branch retirement touches no cache state and loads touch no
// predictor state), and a dense selection becomes a run-batched stream.
func selLoads(c *cpu.CPU, sel []int32, base, w uint64) {
	if n := len(sel); n > 0 && int(sel[n-1])-int(sel[0]) == n-1 {
		c.LoadSeq(base+uint64(sel[0])*w, int(w), n)
		return
	}
	c.LoadSel(base, int(w), sel)
}

// predLoop is the monomorphic inner loop of a predicate batch kernel: per
// selected row one comparison and one retired conditional branch (the loads
// were streamed by the caller), exactly mirroring Eval plus the engine's
// branch step.
func predLoop[T int32 | int64 | float64](c *cpu.CPU, site int, sel, out []int32, vals []T, op CmpOp, bound T) []int32 {
	switch op {
	case LE:
		for _, r := range sel {
			ok := vals[r] <= bound
			c.CondBranch(site, !ok)
			if ok {
				out = append(out, r)
			}
		}
	case LT:
		for _, r := range sel {
			ok := vals[r] < bound
			c.CondBranch(site, !ok)
			if ok {
				out = append(out, r)
			}
		}
	case GE:
		for _, r := range sel {
			ok := vals[r] >= bound
			c.CondBranch(site, !ok)
			if ok {
				out = append(out, r)
			}
		}
	case GT:
		for _, r := range sel {
			ok := vals[r] > bound
			c.CondBranch(site, !ok)
			if ok {
				out = append(out, r)
			}
		}
	case EQ:
		for _, r := range sel {
			ok := vals[r] == bound
			c.CondBranch(site, !ok)
			if ok {
				out = append(out, r)
			}
		}
	default:
		// Unreachable: BindQuery rejects an Op outside LE..EQ.
		panic(fmt.Sprintf("exec: unknown comparison %d", int(op)))
	}
	return out
}

// constLoop handles the degenerate kernel where the comparison outcome is
// the same for every row (an integer bound outside the column's value range):
// the branches are still simulated — as one constant-outcome batch, after the
// caller's loads — only the compare is constant.
func constLoop(c *cpu.CPU, site int, sel, out []int32, ok bool) []int32 {
	c.CondBranchN(site, !ok, len(sel))
	if ok {
		out = append(out, sel...)
	}
	return out
}

// wideBoundPasses resolves a comparison of any int32-kind value against a
// bound outside the int32 range.
func wideBoundPasses(op CmpOp, bound int64) bool {
	if bound > math.MaxInt32 {
		return op == LE || op == LT // v <= huge, v < huge
	}
	return op == GE || op == GT // v >= -huge, v > -huge
}

// evalMask is the branch-free batch kernel: every row in [lo, hi) is loaded
// and compared, and the outcome is ANDed into mask (no data-dependent
// branches are retired). The ExtraCostInstr charge matches Eval's.
func (p *Predicate) evalMask(c *cpu.CPU, lo, hi int, mask []bool) {
	n := hi - lo
	if p.ExtraCostInstr > 0 {
		c.Exec(p.ExtraCostInstr * n)
	}
	base, w := p.scanLayout()
	// The whole vector is loaded unconditionally: one run-batched stream.
	c.LoadSeq(base+uint64(lo)*w, int(w), n)
	switch p.Col.Kind() {
	case columnar.Float64:
		maskLoop(lo, hi, mask, p.Col.F64(), p.Op, p.F)
	case columnar.Int64:
		maskLoop(lo, hi, mask, p.Col.I64(), p.Op, p.I)
	default: // Int32, Date
		if p.I > math.MaxInt32 || p.I < math.MinInt32 {
			if !wideBoundPasses(p.Op, p.I) {
				for i := range mask {
					mask[i] = false
				}
			}
			return
		}
		maskLoop(lo, hi, mask, p.Col.I32(), p.Op, int32(p.I))
	}
}

// maskLoop is the monomorphic compare loop of the branch-free batch kernel
// (loads were streamed by the caller).
func maskLoop[T int32 | int64 | float64](lo, hi int, mask []bool, vals []T, op CmpOp, bound T) {
	switch op {
	case LE:
		for r := lo; r < hi; r++ {
			mask[r-lo] = mask[r-lo] && vals[r] <= bound
		}
	case LT:
		for r := lo; r < hi; r++ {
			mask[r-lo] = mask[r-lo] && vals[r] < bound
		}
	case GE:
		for r := lo; r < hi; r++ {
			mask[r-lo] = mask[r-lo] && vals[r] >= bound
		}
	case GT:
		for r := lo; r < hi; r++ {
			mask[r-lo] = mask[r-lo] && vals[r] > bound
		}
	case EQ:
		for r := lo; r < hi; r++ {
			mask[r-lo] = mask[r-lo] && vals[r] == bound
		}
	default:
		// Unreachable: BindQuery rejects an Op outside LE..EQ.
		panic(fmt.Sprintf("exec: unknown comparison %d", int(op)))
	}
}

// TrueSelectivity scans the column directly (no simulation) and returns the
// predicate's standalone selectivity; used by experiments to label
// configurations and by tests as ground truth.
func (p *Predicate) TrueSelectivity() float64 {
	n := p.Col.Len()
	if n == 0 {
		return 0
	}
	match := 0
	for i := 0; i < n; i++ {
		if p.passRaw(i) {
			match++
		}
	}
	return float64(match) / float64(n)
}

func (p *Predicate) passRaw(row int) bool {
	if p.Col.Kind() == columnar.Float64 {
		v := p.Col.F64()[row]
		switch p.Op {
		case LE:
			return v <= p.F
		case LT:
			return v < p.F
		case GE:
			return v >= p.F
		case GT:
			return v > p.F
		case EQ:
			return v == p.F
		}
	}
	v := p.Col.Int64At(row)
	switch p.Op {
	case LE:
		return v <= p.I
	case LT:
		return v < p.I
	case GE:
		return v >= p.I
	case GT:
		return v > p.I
	case EQ:
		return v == p.I
	}
	// Unreachable: BindQuery rejects an Op outside LE..EQ.
	return false
}
