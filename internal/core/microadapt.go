package core

import (
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/exec"
)

// ImplCostParams parameterize the branching-vs-branch-free decision.
type ImplCostParams struct {
	// MPPenaltyCycles is the misprediction flush cost of the core.
	MPPenaltyCycles float64
	// EvalInstr is the instruction cost of one predicate evaluation
	// (load + compare) and MaskInstr the extra combine cost of the
	// branch-free form; BranchInstr the cmp+jcc of the branching form.
	EvalInstr, MaskInstr, BranchInstr float64
	// IssueWidth converts instructions to cycles.
	IssueWidth float64
	// Chain models the predictor for the branching form's mispredictions.
	Chain markov.Chain
	// Geometry models the cache for the memory term; Widths are the
	// predicate column widths in evaluation order (default 8 each).
	Geometry cachemodel.Geometry
	Widths   []int
	// SeqLineStall is the cycles per sequentially streamed (prefetched)
	// line; RandomLineStall per conditional-read line the streamer misses.
	// The asymmetry is the paper's §3.1 point: skipping tuples does not
	// proportionally skip memory cost.
	SeqLineStall, RandomLineStall float64
}

// DefaultImplCostParams matches the simulated ScaledXeon core and the
// engine's instruction accounting.
func DefaultImplCostParams() ImplCostParams {
	return ImplCostParams{
		MPPenaltyCycles: 15,
		EvalInstr:       1, // the load
		MaskInstr:       2,
		BranchInstr:     2,
		IssueWidth:      4,
		Chain:           markov.Paper(),
		Geometry:        cachemodel.MustGeometry(64, 16384),
		SeqLineStall:    2,
		RandomLineStall: 25,
	}
}

// ChooseImpl picks the cheaper scan implementation for one vector given the
// estimated per-predicate selectivities (in evaluation order), per tuple:
//
//	branching:   (eval+branch) instructions for reached predicates,
//	             misprediction penalties from the chain model, and the
//	             conditional-read memory cost (random misses weighted by
//	             RandomLineStall — the §3.1 double-counting effect)
//	branch-free: every predicate evaluated and every column fully streamed,
//	             but no mispredictions and purely sequential memory
//
// This is micro adaptivity (Răducanu et al., the paper's related work)
// driven by the counter-estimated selectivities instead of runtime trials:
// no alternative implementation ever needs to be executed to be costed.
func ChooseImpl(sels []float64, p ImplCostParams) exec.ScanImpl {
	if len(sels) == 0 {
		return exec.ImplBranching
	}
	// Per-tuple costing over a nominal vector.
	const n = 4096
	branching, branchFree := 0.0, 0.0
	reach := 1.0
	for i, s := range sels {
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		width := 8
		if i < len(p.Widths) && p.Widths[i] > 0 {
			width = p.Widths[i]
		}
		branching += reach * (p.EvalInstr + p.BranchInstr) / p.IssueWidth
		branching += reach * p.Chain.Predict(s).MP() * p.MPPenaltyCycles
		cr := p.Geometry.CondReadAccesses(n, width, reach)
		branching += (cr.Touched*p.SeqLineStall + cr.Random*p.RandomLineStall) / n

		branchFree += (p.EvalInstr + p.MaskInstr) / p.IssueWidth
		branchFree += p.Geometry.Lines(n, width) * p.SeqLineStall / n
		reach *= s
	}
	if branchFree < branching {
		return exec.ImplBranchFree
	}
	return exec.ImplBranching
}

// implName renders a scan implementation for trace args.
func implName(impl exec.ScanImpl) string {
	if impl == exec.ImplBranchFree {
		return "branch-free"
	}
	return "branching"
}
