package core

import (
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/exec"
)

// The branching-vs-branch-free cost rule's constants match the simulated
// ScaledXeon core and the engine's instruction accounting.
const (
	// implMPPenaltyCycles is the misprediction flush cost of the core.
	implMPPenaltyCycles = 15.0
	// implEvalInstr is the instruction cost of one predicate evaluation (the
	// load) and implMaskInstr the extra combine cost of the branch-free form;
	// implBranchInstr the cmp+jcc of the branching form.
	implEvalInstr, implMaskInstr, implBranchInstr = 1.0, 2.0, 2.0
	// implIssueWidth converts instructions to cycles.
	implIssueWidth = 4.0
	// implSeqLineStall is the cycles per sequentially streamed (prefetched)
	// line; implRandomLineStall per conditional-read line the streamer misses.
	// The asymmetry is the paper's §3.1 point: skipping tuples does not
	// proportionally skip memory cost.
	implSeqLineStall, implRandomLineStall = 2.0, 25.0
	// implWidth is the column width every predicate is costed at.
	implWidth = 8
)

var (
	// implChain models the predictor for the branching form's mispredictions.
	implChain = markov.Paper()
	// implGeometry models the cache for the memory term.
	implGeometry = cachemodel.MustGeometry(64, 16384)
)

// ChooseImpl picks the cheaper scan implementation for one vector given the
// estimated per-predicate selectivities (in evaluation order), per tuple:
//
//	branching:   (eval+branch) instructions for reached predicates,
//	             misprediction penalties from the chain model, and the
//	             conditional-read memory cost (random misses weighted by
//	             implRandomLineStall — the §3.1 double-counting effect)
//	branch-free: every predicate evaluated and every column fully streamed,
//	             but no mispredictions and purely sequential memory
//
// This is micro adaptivity (Răducanu et al., the paper's related work)
// driven by the counter-estimated selectivities instead of runtime trials:
// no alternative implementation ever needs to be executed to be costed.
func ChooseImpl(sels []float64) exec.ScanImpl {
	if len(sels) == 0 {
		return exec.ImplBranching
	}
	// Per-tuple costing over a nominal vector.
	const n = 4096
	branching, branchFree := 0.0, 0.0
	reach := 1.0
	for _, s := range sels {
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		branching += float64(reach * (implEvalInstr + implBranchInstr) / implIssueWidth)
		branching += float64(reach * implChain.Predict(s).MP() * implMPPenaltyCycles)
		cr := implGeometry.CondReadAccesses(n, implWidth, reach)
		branching += float64((float64(cr.Touched*implSeqLineStall) + float64(cr.Random*implRandomLineStall)) / n)

		branchFree += (implEvalInstr + implMaskInstr) / implIssueWidth
		branchFree += float64(implGeometry.Lines(n, implWidth) * implSeqLineStall / n)
		reach *= s
	}
	if branchFree < branching {
		return exec.ImplBranchFree
	}
	return exec.ImplBranching
}
