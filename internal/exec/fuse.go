package exec

import (
	"fmt"
	"math"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
)

// This file implements the fused form of the batch pipeline: the operator
// chain Filter*→FKJoin*→(Sum|GroupBy) runs through specialized kernels that
// keep the survivor selection in the pipeline's working buffers and retire
// each operator's conditional branch run-length encoded — one CondBranchN
// call per same-outcome run instead of one CondBranch call per row, plus one
// bulk survivor append per run instead of one per row.
//
// Fusion changes no simulated event. Per operator the fused kernel performs
// the same Exec charges, the same run-batched loads, and then emits the
// per-site branch-outcome stream in exactly the per-row order of the unfused
// kernel: CondBranchN(site, taken, n) is defined (and tested) to equal n
// sequential CondBranch(site, taken) calls for every predictor model, so
// instruction counts, branch counters, misprediction attribution, predictor
// state, and stall cycles are bit-identical to the unfused path — which is
// retained behind Engine.SetFuse(false) as the oracle tests compare against.
//
// The host win is mechanical: clustered columns (sorted dates, co-clustered
// join keys) produce long same-outcome runs whose whole branch accounting
// collapses into one closed-form predictor update, and even random 50/50
// outcomes halve the per-row call count.

// fusedPipeline runs the operator chain over cur, alternating between the two
// selection buffers, and returns the final survivors (aliasing one of the
// buffers). Operators without a fused kernel fall back to their EvalBatch —
// the pipeline is then partially fused, still event-exact.
func fusedPipeline(c *cpu.CPU, ops []Op, cur, next []int32) []int32 {
	for si, op := range ops {
		if len(cur) == 0 {
			// No survivors reach the remaining operators — the scalar loop
			// would not evaluate them either.
			break
		}
		switch t := op.(type) {
		case *Predicate:
			next = t.evalBatchFused(c, si, cur, next[:0])
		case *FKJoin:
			next = t.evalBatchFused(c, si, cur, next[:0])
		default:
			next = op.EvalBatch(c, si, cur, next[:0])
		}
		cur, next = next, cur
	}
	return cur
}

// evalBatchFused is Predicate.EvalBatch with the compare-and-branch phase
// run-length encoded. Charges, loads, and the branch-outcome stream are
// identical.
func (p *Predicate) evalBatchFused(c *cpu.CPU, site int, sel, out []int32) []int32 {
	if p.ExtraCostInstr > 0 {
		c.Exec(p.ExtraCostInstr * len(sel))
	}
	base, w := p.scanLayout()
	switch p.Col.Kind() {
	case columnar.Float64:
		return predLoopRLE(c, site, sel, out, p.Col.F64(), base, w, p.Op, p.F)
	case columnar.Int64:
		return predLoopRLE(c, site, sel, out, p.Col.I64(), base, w, p.Op, p.I)
	default: // Int32, Date
		if p.I > math.MaxInt32 || p.I < math.MinInt32 {
			return constLoop(c, site, sel, out, base, w, wideBoundPasses(p.Op, p.I))
		}
		return predLoopRLE(c, site, sel, out, p.Col.I32(), base, w, p.Op, int32(p.I))
	}
}

// predLoopRLE is predLoop with run-length-encoded branch retirement: each
// row's comparison is evaluated exactly once, maximal same-outcome runs
// retire as one CondBranchN (bit-identical to per-row CondBranch calls), and
// each passing run appends to the survivor vector in one copy.
func predLoopRLE[T int32 | int64 | float64](c *cpu.CPU, site int, sel, out []int32, vals []T, base, w uint64, op CmpOp, bound T) []int32 {
	selLoads(c, sel, base, w)
	n := len(sel)
	switch op {
	case LE:
		for i := 0; i < n; {
			ok := vals[sel[i]] <= bound
			j := i + 1
			for j < n && (vals[sel[j]] <= bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case LT:
		for i := 0; i < n; {
			ok := vals[sel[i]] < bound
			j := i + 1
			for j < n && (vals[sel[j]] < bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case GE:
		for i := 0; i < n; {
			ok := vals[sel[i]] >= bound
			j := i + 1
			for j < n && (vals[sel[j]] >= bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case GT:
		for i := 0; i < n; {
			ok := vals[sel[i]] > bound
			j := i + 1
			for j < n && (vals[sel[j]] > bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case EQ:
		for i := 0; i < n; {
			ok := vals[sel[i]] == bound
			j := i + 1
			for j < n && (vals[sel[j]] == bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	default:
		return predLoop(c, site, sel, out, vals, base, w, op, bound)
	}
	return out
}

// evalBatchFused is FKJoin.EvalBatch with the filter branch phase run-length
// encoded and the filter comparison monomorphized over the build column's
// kind (the per-row passRaw dispatch hoisted out of the loop). The gather
// phase — charges, key loads, interleaved hop/probe/filter address stream —
// is the unfused kernel's own gatherBatch, so it is byte-for-byte identical
// by construction.
func (j *FKJoin) evalBatchFused(c *cpu.CPU, site int, sel, out []int32) []int32 {
	keys := j.gatherBatch(c, sel)
	if j.Filter == nil {
		c.CondBranchN(site, false, len(sel))
		return append(out, sel...)
	}
	return filterKeysRLE(c, site, j.Filter, sel, keys, out)
}

// filterKeysRLE retires the join filter's branch phase with run-length
// encoding, dispatching once on the build column's kind. Outcomes match
// passRaw exactly, including integer bounds outside the int32 range.
func filterKeysRLE(c *cpu.CPU, site int, f *Predicate, sel []int32, keys []int64, out []int32) []int32 {
	switch f.Col.Kind() {
	case columnar.Float64:
		return keyLoopRLE(c, site, sel, keys, out, f.Col.F64(), f.Op, f.F)
	case columnar.Int64:
		return keyLoopRLE(c, site, sel, keys, out, f.Col.I64(), f.Op, f.I)
	default: // Int32, Date
		if f.I > math.MaxInt32 || f.I < math.MinInt32 {
			ok := wideBoundPasses(f.Op, f.I)
			c.CondBranchN(site, !ok, len(sel))
			if ok {
				out = append(out, sel...)
			}
			return out
		}
		return keyLoopRLE(c, site, sel, keys, out, f.Col.I32(), f.Op, int32(f.I))
	}
}

// keyLoopRLE is predLoopRLE's shape over gathered build rows: the filter
// value is indexed by the decoded key instead of the probe row, survivors are
// still the probe-side selection.
func keyLoopRLE[T int32 | int64 | float64](c *cpu.CPU, site int, sel []int32, keys []int64, out []int32, vals []T, op CmpOp, bound T) []int32 {
	n := len(sel)
	switch op {
	case LE:
		for i := 0; i < n; {
			ok := vals[keys[i]] <= bound
			j := i + 1
			for j < n && (vals[keys[j]] <= bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case LT:
		for i := 0; i < n; {
			ok := vals[keys[i]] < bound
			j := i + 1
			for j < n && (vals[keys[j]] < bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case GE:
		for i := 0; i < n; {
			ok := vals[keys[i]] >= bound
			j := i + 1
			for j < n && (vals[keys[j]] >= bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case GT:
		for i := 0; i < n; {
			ok := vals[keys[i]] > bound
			j := i + 1
			for j < n && (vals[keys[j]] > bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	case EQ:
		for i := 0; i < n; {
			ok := vals[keys[i]] == bound
			j := i + 1
			for j < n && (vals[keys[j]] == bound) == ok {
				j++
			}
			c.CondBranchN(site, !ok, j-i)
			if ok {
				out = append(out, sel[i:j]...)
			}
			i = j
		}
	default:
		panic(fmt.Sprintf("exec: unknown comparison %d", int(op)))
	}
	return out
}
