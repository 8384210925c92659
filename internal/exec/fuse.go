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
// each operator's conditional branches without a host branch on the data.
// A kernel makes two passes over its vector: selectBits compares every
// selected row, packs the branch directions into an outcome bitmask and
// compacts the survivors as it goes; one CondBranchBits call then retires the
// whole mask.
//
// Fusion changes no simulated event. Per operator the fused kernel performs
// the same Exec charges and the same run-batched loads, hoisted ahead of the
// branches exactly as the unfused kernel hoists them (loads touch no
// predictor state, branches no cache state). Bit i of the mask is the
// direction of the operator's i-th selected row, so the site sees its outcome
// stream in the unfused kernel's per-row order, and CondBranchBits(site,
// bits, n) is defined (and tested, internal/hw/cpu/runbatch_test.go) to
// equal n sequential CondBranch calls for every predictor model: the
// saturating predictors walk a table that is Observe composed eight times,
// built by calling Observe; every other predictor observes bit by bit.
// Instruction counts, branch counters, misprediction attribution, predictor
// state and stall cycles are therefore bit-identical to the unfused path —
// which is retained behind Engine.SetFuse(false) as the oracle tests compare
// against.
//
// The host win is what the kernel no longer does: on an unclustered column a
// row's outcome is a coin the host's predictor cannot call, while the
// simulated predictor's answer is a pure function of the bit string.

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
// retired through an outcome bitmask. Charges, loads, and the branch-outcome
// stream are identical.
func (p *Predicate) evalBatchFused(c *cpu.CPU, site int, sel, out []int32) []int32 {
	if p.ExtraCostInstr > 0 {
		c.Exec(p.ExtraCostInstr * len(sel))
	}
	base, w := p.scanLayout()
	selLoads(c, sel, base, w)
	return selectFused(c, site, p, sel, sel, out)
}

// evalBatchFused is FKJoin.EvalBatch with the filter's branch phase retired
// through an outcome bitmask. The gather phase — charges, key loads,
// interleaved hop/probe/filter address stream — is the unfused kernel's own
// gatherBatch, so it is byte-for-byte identical by construction.
func (j *FKJoin) evalBatchFused(c *cpu.CPU, site int, sel, out []int32) []int32 {
	keys := j.gatherBatch(c, sel)
	if j.Filter == nil {
		c.CondBranchN(site, false, len(sel))
		return append(out, sel...)
	}
	return selectFused(c, site, j.Filter, keys, sel, out)
}

// selectFused is the compare-and-branch phase of both fused kernels: it
// compares p's column at idx[i] against the bound for every i, retires the
// branches at site and appends the sel[i] that pass to out, dispatching once
// on the column's kind. A predicate passes its own selection as idx, a join
// filter the build rows its probe rows resolved to. Outcomes match passRaw
// exactly, including integer bounds outside the int32 range.
func selectFused[I int32 | int64](c *cpu.CPU, site int, p *Predicate, idx []I, sel, out []int32) []int32 {
	switch p.Col.Kind() {
	case columnar.Float64:
		return selectBits(c, site, p.Col.F64(), idx, sel, out, p.Op, p.F)
	case columnar.Int64:
		return selectBits(c, site, p.Col.I64(), idx, sel, out, p.Op, p.I)
	default: // Int32, Date
		if p.I > math.MaxInt32 || p.I < math.MinInt32 {
			return constLoop(c, site, sel, out, wideBoundPasses(p.Op, p.I))
		}
		return selectBits(c, site, p.Col.I32(), idx, sel, out, p.Op, int32(p.I))
	}
}

// selectBits evaluates vals[idx[i]] op bound for every i with no host branch
// on the outcome. Sixty-four rows at a time, passWord gathers the pass bits
// into one word while appending sel[i] to out unconditionally and advancing
// out's length by the row's pass bit; the word's complement — the branch is
// taken when the row fails — goes to the core's direction scratch, and one
// CondBranchBits call then retires all len(sel) branches in row order.
func selectBits[T int32 | int64 | float64, I int32 | int64](c *cpu.CPU, site int, vals []T, idx []I, sel, out []int32, op CmpOp, bound T) []int32 {
	n := len(sel)
	dirs := c.BitBuf(n)
	out = out[:n]
	k := 0
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		pass, kept := passWord(vals, idx[lo:hi], sel[lo:hi], out[k:], op, bound)
		dirs[lo>>6] = ^pass
		k += kept
	}
	c.CondBranchBits(site, dirs, n)
	return out[:k]
}

// passWord compares up to 64 indexed values against the bound. It returns
// the outcomes as a word, bit i set iff vals[idx[i]] passes, and has written
// the sel[i] that pass to the front of out, whose count it also returns (out
// needs room for len(idx) rows: every row is stored, a failing one is
// overwritten by the next). It is the one compare loop of the fused kernels,
// kept out of line so that each of its loops holds its live values in
// registers.
func passWord[T int32 | int64 | float64, I int32 | int64](vals []T, idx []I, sel, out []int32, op CmpOp, bound T) (pass uint64, k int) {
	sel = sel[:len(idx)]
	switch op {
	case LE:
		for i, x := range idx {
			b := bit(vals[x] <= bound)
			out[k] = sel[i]
			k += int(b)
			pass = pass>>1 | b<<63
		}
	case LT:
		for i, x := range idx {
			b := bit(vals[x] < bound)
			out[k] = sel[i]
			k += int(b)
			pass = pass>>1 | b<<63
		}
	case GE:
		for i, x := range idx {
			b := bit(vals[x] >= bound)
			out[k] = sel[i]
			k += int(b)
			pass = pass>>1 | b<<63
		}
	case GT:
		for i, x := range idx {
			b := bit(vals[x] > bound)
			out[k] = sel[i]
			k += int(b)
			pass = pass>>1 | b<<63
		}
	case EQ:
		for i, x := range idx {
			b := bit(vals[x] == bound)
			out[k] = sel[i]
			k += int(b)
			pass = pass>>1 | b<<63
		}
	default:
		// Unreachable: BindQuery rejects an Op outside LE..EQ.
		panic(fmt.Sprintf("exec: unknown comparison %d", int(op)))
	}
	return pass >> (uint(64-len(idx)) & 63), k
}

// bit is 1 for true and 0 for false; it compiles to a flag-set instruction,
// not a branch.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
