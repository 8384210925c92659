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
	if len(sels) != len(m.cols) {
		return Estimate{}, fmt.Errorf("peo: %d selectivities for %d predicates", len(sels), len(m.cols))
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
		est.BNT += float64(input * sel)
		est.BTaken += float64(input * (1 - sel))
		r := m.chain.Predict(sel)
		est.MPTaken += float64(r.MPTaken * input)
		est.MPNotTaken += float64(r.MPNotTaken * input)
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
