// Package peo predicts the performance-counter values a multi-selection
// query produces under a given predicate evaluation order (PEO) and
// per-predicate selectivities. It composes the Markov branch model with the
// conditional-read cache model, exactly the forward model the paper's
// learning algorithm (§4.2) inverts: Nelder-Mead searches the selectivity
// space for the vector that makes these estimates match the sampled
// counters.
package peo

import (
	"fmt"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
)

// Params describes the scanned data and hardware the estimates are for.
type Params struct {
	// N is the number of tuples scanned (one vector or a whole run).
	N int
	// Widths are the byte widths of each predicate's column in PEO order.
	Widths []int
	// AggWidths are the widths of columns read for fully qualifying tuples
	// (aggregation inputs).
	AggWidths []int
	// Geometry is the modelled cache level (L3 for the paper's counter).
	Geometry cachemodel.Geometry
	// Chain is the branch-predictor model.
	Chain markov.Chain
}

func (p Params) validate() error {
	if p.N <= 0 {
		return fmt.Errorf("peo: non-positive tuple count %d", p.N)
	}
	if len(p.Widths) == 0 {
		return fmt.Errorf("peo: no predicates")
	}
	for i, w := range p.Widths {
		if w <= 0 {
			return fmt.Errorf("peo: predicate %d has non-positive width %d", i, w)
		}
	}
	return nil
}

func checkSels(sels []float64, predicates int) error {
	if len(sels) != predicates {
		return fmt.Errorf("peo: %d selectivities for %d predicates", len(sels), predicates)
	}
	return nil
}

// Estimate holds predicted counter values for one PEO.
type Estimate struct {
	// BNT is the number of branches not taken: the sum over predicates of
	// tuples qualifying that predicate (§2.2.1).
	BNT float64
	// BTaken is the number of branches taken: one per failing tuple plus the
	// loop-back branch per tuple.
	BTaken float64
	// MPTaken and MPNotTaken are mispredicted taken / not-taken branches.
	MPTaken, MPNotTaken float64
	// L3 is the modelled L3-access count (demand + prefetch line accesses).
	L3 float64
	// Qualifying is the expected output cardinality.
	Qualifying float64
}

// MP returns total mispredictions.
func (e Estimate) MP() float64 { return e.MPTaken + e.MPNotTaken }

// Model is Params with everything that does not depend on the selectivities
// evaluated once: the validation and each column's conditional-read pattern.
// The selectivity estimator evaluates one model at thousands of selectivity
// vectors per decision; a Model is reused across decisions with Reset and
// owns its buffers, so neither step allocates once the buffers have grown.
type Model struct {
	n          float64
	chain      markov.Chain
	cols, aggs []cachemodel.CondReadColumn
}

// Reset rebuilds the model for par, reusing its buffers.
func (m *Model) Reset(par Params) error {
	if err := par.validate(); err != nil {
		return err
	}
	m.n = float64(par.N)
	m.chain = par.Chain
	p, all := len(par.Widths), len(par.Widths)+len(par.AggWidths)
	if cap(m.cols) < all {
		m.cols = make([]cachemodel.CondReadColumn, all)
	}
	// One backing array: the predicates' columns, then the aggregates'.
	m.cols, m.aggs = m.cols[:p], m.cols[p:all]
	for i, w := range par.Widths {
		m.cols[i] = par.Geometry.CondReadColumn(par.N, w)
	}
	for i, w := range par.AggWidths {
		m.aggs[i] = par.Geometry.CondReadColumn(par.N, w)
	}
	return nil
}

// Counters predicts the counter values for the PEO whose per-predicate
// selectivities (in evaluation order) are sels. Selectivities are clamped to
// [0,1]; independence between predicates is assumed, as in the paper.
func (m *Model) Counters(sels []float64) (Estimate, error) {
	if err := checkSels(sels, len(m.cols)); err != nil {
		return Estimate{}, err
	}
	n := m.n
	var est Estimate
	prod := 1.0
	for i, raw := range sels {
		sel := raw
		if sel < 0 {
			sel = 0
		}
		if sel > 1 {
			sel = 1
		}
		input := n * prod
		// Branch events of predicate i (§2.2.1): not taken when the tuple
		// qualifies, taken when it fails.
		est.BNT += input * sel
		est.BTaken += input * (1 - sel)
		r := m.chain.Predict(sel)
		est.MPTaken += r.MPTaken * input
		est.MPNotTaken += r.MPNotTaken * input
		// Column of predicate i is read for every tuple reaching it: a
		// conditional-read pattern with access probability prod (sequential
		// scan when prod == 1).
		est.L3 += m.cols[i].Accesses(prod).Accesses
		prod *= sel
	}
	// Loop-back branch: taken once per tuple, fully predictable.
	est.BTaken += n
	for _, c := range m.aggs {
		est.L3 += c.Accesses(prod).Accesses
	}
	est.Qualifying = n * prod
	return est, nil
}

// Counters is Model.Counters on a model built for this one call.
func Counters(par Params, sels []float64) (Estimate, error) {
	var m Model
	if err := m.Reset(par); err != nil {
		return Estimate{}, err
	}
	return m.Counters(sels)
}

// CostParams convert counter estimates into cycles, mirroring the simulated
// core's accounting closely enough to rank PEOs.
type CostParams struct {
	// IssueWidth spreads retired instructions over cycles.
	IssueWidth int
	// MPPenaltyCycles is the misprediction flush cost.
	MPPenaltyCycles int
	// LineStallCycles is the average stall charged per L3 line access
	// (memory latency diluted by memory-level parallelism).
	LineStallCycles float64
	// InstrPerEval is the instruction cost of one predicate evaluation
	// (load + compare + jump).
	InstrPerEval float64
	// InstrPerTuple is the loop overhead per tuple.
	InstrPerTuple float64
	// InstrPerOutput is the aggregation cost per qualifying tuple.
	InstrPerOutput float64
}

// DefaultCostParams matches the simulated ScaledXeon core.
func DefaultCostParams() CostParams {
	return CostParams{
		IssueWidth:      4,
		MPPenaltyCycles: 15,
		LineStallCycles: 45, // 180-cycle memory latency / MemParallelism 4
		InstrPerEval:    3,
		InstrPerTuple:   4,
		InstrPerOutput:  5,
	}
}

// Cycles converts an estimate into a cycle count for ranking PEOs.
func Cycles(par Params, cost CostParams, sels []float64) (float64, error) {
	est, err := Counters(par, sels)
	if err != nil {
		return 0, err
	}
	n := float64(par.N)
	evals := 0.0
	prod := 1.0
	for _, sel := range sels {
		evals += n * prod
		s := sel
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		prod *= s
	}
	instr := evals*cost.InstrPerEval + n*cost.InstrPerTuple + est.Qualifying*cost.InstrPerOutput
	cycles := instr/float64(cost.IssueWidth) +
		est.MP()*float64(cost.MPPenaltyCycles) +
		est.L3*cost.LineStallCycles
	return cycles, nil
}

// BestOrder returns the permutation of predicate indexes that minimizes
// Cycles for the given per-predicate selectivities (indexes refer to the
// Params/sels order). For equal widths this is ascending selectivity, the
// classical result the paper's reordering step applies.
func BestOrder(par Params, cost CostParams, sels []float64) ([]int, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	if err := checkSels(sels, len(par.Widths)); err != nil {
		return nil, err
	}
	idx := make([]int, len(sels))
	for i := range idx {
		idx[i] = i
	}
	// Selection-cost exchange argument: sorting by ascending selectivity is
	// optimal when per-predicate costs are equal; with unequal widths the
	// standard rank is (sel-1)/cost, but widths only perturb the cache term,
	// so we sort by ascending selectivity and break ties by width.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			if sels[b] < sels[a] || (sels[b] == sels[a] && par.Widths[b] < par.Widths[a]) {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			} else {
				break
			}
		}
	}
	return idx, nil
}
