// Package stats implements the classical statistics machinery the paper's
// progressive approach replaces: equi-width histograms built from a loaded
// sample, selectivity estimation from them, and a static optimizer that
// fixes the predicate order at "compile time". Its failure modes — stale
// samples on bulk-loaded data, correlation-blind independence — are exactly
// the uncertainties §4 lists as the reasons progressive optimization exists,
// and the ext-static experiment measures them head to head.
package stats

import (
	"fmt"
	"sort"

	"progopt/internal/columnar"
	"progopt/internal/exec"
)

// Histogram is an equi-width histogram over an integer-kind or float column.
type Histogram struct {
	lo, hi  float64
	buckets []int64
	total   int64
}

// DefaultBuckets is the histogram resolution used by BuildHistogram.
const DefaultBuckets = 64

// BuildHistogram builds an equi-width histogram from the first sampleRows
// rows of the column (sampleRows <= 0 or > len means the whole column).
// Sampling a prefix is what a bulk-loading system effectively does when
// statistics are gathered at load time — and is what goes stale.
func BuildHistogram(col *columnar.Column, sampleRows, buckets int) (*Histogram, error) {
	if col == nil {
		return nil, fmt.Errorf("stats: nil column")
	}
	n := col.Len()
	if n == 0 {
		return nil, fmt.Errorf("stats: empty column %q", col.Name())
	}
	if sampleRows <= 0 || sampleRows > n {
		sampleRows = n
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	lo, hi := col.Float64At(0), col.Float64At(0)
	for i := 1; i < sampleRows; i++ {
		v := col.Float64At(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h := &Histogram{lo: lo, hi: hi, buckets: make([]int64, buckets)}
	span := hi - lo
	for i := 0; i < sampleRows; i++ {
		v := col.Float64At(i)
		b := 0
		if span > 0 {
			b = int((v - lo) / span * float64(buckets))
		}
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		h.buckets[b]++
		h.total++
	}
	return h, nil
}

// EstimateLE estimates the selectivity of "col <= bound" by summing full
// buckets below the bound and interpolating linearly within the boundary
// bucket.
func (h *Histogram) EstimateLE(bound float64) float64 {
	if h.total == 0 {
		return 0
	}
	if bound < h.lo {
		return 0
	}
	if bound >= h.hi {
		return 1
	}
	span := h.hi - h.lo
	if span == 0 {
		return 1
	}
	pos := float64((bound - h.lo) / span * float64(len(h.buckets)))
	full := int(pos)
	frac := pos - float64(full)
	var count float64
	for i := 0; i < full && i < len(h.buckets); i++ {
		count += float64(h.buckets[i])
	}
	if full < len(h.buckets) {
		count += float64(frac * float64(h.buckets[full]))
	}
	return count / float64(h.total)
}

// Estimate estimates the selectivity of one comparison against the bound.
func (h *Histogram) Estimate(op exec.CmpOp, bound float64) float64 {
	switch op {
	case exec.LE:
		return h.EstimateLE(bound)
	case exec.LT:
		// Continuous approximation: LT ~ LE just below the bound.
		return h.EstimateLE(bound - 1e-9)
	case exec.GE:
		return 1 - h.EstimateLE(bound-1e-9)
	case exec.GT:
		return 1 - h.EstimateLE(bound)
	case exec.EQ:
		// One bucket's density spread over its width.
		w := (h.hi - h.lo) / float64(len(h.buckets))
		if w <= 0 {
			return 1
		}
		return h.EstimateLE(bound+float64(w/2)) - h.EstimateLE(bound-float64(w/2))
	default:
		return 0.5
	}
}

// Catalog holds histograms per column name.
type Catalog struct {
	hists map[string]*Histogram
}

// BuildCatalog builds histograms for every column of the table from the
// first sampleRows rows.
func BuildCatalog(t *columnar.Table, sampleRows int) (*Catalog, error) {
	c := &Catalog{hists: make(map[string]*Histogram)}
	for _, col := range t.Columns() {
		h, err := BuildHistogram(col, sampleRows, DefaultBuckets)
		if err != nil {
			return nil, err
		}
		c.hists[col.Name()] = h
	}
	return c, nil
}

// EstimatePredicate estimates one predicate's selectivity from the catalog
// (0.5 for unknown columns, the textbook default).
func (c *Catalog) EstimatePredicate(p *exec.Predicate) float64 {
	h := c.hists[p.Col.Name()]
	if h == nil {
		return 0.5
	}
	bound := p.F
	if p.Col.Kind() != columnar.Float64 {
		bound = float64(p.I)
	}
	return h.Estimate(p.Op, bound)
}

// StaticOrder is the static optimizer: it orders the query's predicates by
// ascending histogram-estimated selectivity (assuming independence) and
// returns the permutation. Non-predicate operators keep their relative
// position at the end.
func (c *Catalog) StaticOrder(q *exec.Query) ([]int, []float64, error) {
	type ranked struct {
		idx int
		sel float64
	}
	var preds []ranked
	var rest []int
	sels := make([]float64, len(q.Ops))
	for i, op := range q.Ops {
		if p, ok := op.(*exec.Predicate); ok {
			s := c.EstimatePredicate(p)
			sels[i] = s
			preds = append(preds, ranked{i, s})
		} else {
			sels[i] = 1
			rest = append(rest, i)
		}
	}
	if len(preds) == 0 {
		return nil, nil, fmt.Errorf("stats: query has no predicates to order")
	}
	sort.SliceStable(preds, func(a, b int) bool { return preds[a].sel < preds[b].sel })
	perm := make([]int, 0, len(q.Ops))
	for _, r := range preds {
		perm = append(perm, r.idx)
	}
	perm = append(perm, rest...)
	return perm, sels, nil
}
