package core

import (
	"fmt"
	"math"

	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/hw/pmu"
)

// CounterSample carries the per-interval PMU readings the estimator inverts:
// the paper's four counters plus the two exact cardinalities derived from
// them (§4.1).
type CounterSample struct {
	// N is the number of tuples executed in the sampled interval.
	N float64
	// BNT is branches not taken.
	BNT float64
	// MPTaken and MPNotTaken are the misprediction counters.
	MPTaken, MPNotTaken float64
	// L3 is the L3-access counter (demand + prefetch).
	L3 float64
	// Qualifying is the output cardinality, 2n - branchesTaken (§2.2.1).
	Qualifying float64
}

// SampleFromPMU derives a CounterSample from a PMU delta over n tuples.
func SampleFromPMU(delta pmu.Sample, n int) CounterSample {
	qual := 2*float64(n) - float64(delta.Get(pmu.BrTaken))
	if qual < 0 {
		qual = 0
	}
	if qual > float64(n) {
		qual = float64(n)
	}
	return CounterSample{
		N:          float64(n),
		BNT:        float64(delta.Get(pmu.BrNotTaken)),
		MPTaken:    float64(delta.Get(pmu.BrMPTaken)),
		MPNotTaken: float64(delta.Get(pmu.BrMPNotTaken)),
		L3:         float64(delta.Get(pmu.L3Access)),
		Qualifying: qual,
	}
}

// EstimatorConfig configures selectivity estimation for one PEO.
type EstimatorConfig struct {
	// Widths are the operator input widths in current evaluation order.
	Widths []int
	// AggWidths are aggregation column widths.
	AggWidths []int
	// Geometry models the L3 level.
	Geometry cachemodel.Geometry
	// Chain models the branch predictor.
	Chain markov.Chain
	// MaxIterNM bounds Nelder-Mead iterations per start (default 10000, the
	// paper's best setting).
	MaxIterNM int
	// AbsTol is the paper's absolute tolerance of 1 between iterations,
	// applied to the raw counter-difference objective of Eq. (10).
	AbsTol float64
	// MaxStarts bounds the number of start points (the paper's m = 2p;
	// default 2*len(Widths)).
	MaxStarts int
	// Weights scales each counter's contribution to the Eq. (10) objective;
	// nil weights every counter at 1 (the paper's choice). Used by the
	// counter-subset ablation.
	Weights *CounterWeights
}

// noImproveLimit stops the restarts after this many consecutive starts
// without improvement (the paper's n < 5).
const noImproveLimit = 4

// CounterWeights scales the four counters in the estimation objective.
type CounterWeights struct {
	BNT, L3, MPNotTaken, MPTaken float64
}

func (c *EstimatorConfig) setDefaults() {
	if c.MaxIterNM <= 0 {
		c.MaxIterNM = 10000
	}
	if c.AbsTol <= 0 {
		c.AbsTol = 1
	}
	if c.MaxStarts <= 0 {
		c.MaxStarts = 2 * len(c.Widths)
	}
	if c.Chain.States() == 0 {
		c.Chain = markov.Paper()
	}
	if c.Geometry.LineSize == 0 {
		c.Geometry = cachemodel.MustGeometry(64, 16384)
	}
}

// Estimation is the estimator's output.
type Estimation struct {
	// Sels are the estimated per-predicate selectivities in evaluation order.
	Sels []float64
	// Products are the cumulative selectivity products (accesses/tupsIn).
	Products []float64
	// Cost is the Eq. (10) objective at the estimate.
	Cost float64
	// Starts is the number of start points tried.
	Starts int
	// NMEvaluations counts objective evaluations across all starts — the
	// optimization work the progressive driver charges to the CPU.
	NMEvaluations int
}

// EstimateSelectivities is Estimator.Estimate on a fresh estimator, so the
// result's slices belong to the caller. A driver that estimates repeatedly
// holds an Estimator instead.
func EstimateSelectivities(s CounterSample, cfg EstimatorConfig) (Estimation, error) {
	var e Estimator
	return e.Estimate(s, cfg)
}

// Estimator runs the selectivity estimation of §4.2 and owns every buffer it
// needs — the forward model, the §4.1 bounds, the start-point generator, the
// Nelder-Mead workspace and the result vectors — so a driver that keeps one
// for the life of a run allocates nothing per decision once the buffers have
// grown to the query's predicate count. The zero value is ready to use. An
// Estimator is not safe for concurrent use.
type Estimator struct {
	// Inputs of the running Estimate call, read by the objective.
	s        CounterSample
	qualFrac float64
	weights  CounterWeights
	evals    int
	model    peo.Model
	// modelErr is the forward model's rejection of the call's parameters; the
	// objective is +Inf everywhere then.
	modelErr error

	// objective is the bound method value of objectiveAt, created once: a
	// fresh closure per call would be a heap allocation per decision.
	objective func([]float64) float64

	sels         []float64 // objective scratch
	bounds       Bounds
	lo, hi, null []float64
	x0           []float64
	gen          StartPointGen
	nm           nmWorkspace
	bestSels     []float64
	bestProducts []float64
}

// Estimate inverts the counter cost models: it searches the (bounded, §4.1)
// space of cumulative selectivity products for the vector whose predicted
// counters (§3) best match the sample, using Nelder-Mead restarts over the
// §4.3 start-point sequence.
//
// The paper's Eq. (10) literally sums signed differences, which would cancel
// opposite-signed errors; we sum absolute differences, which is evidently
// the intent (and is what makes the minimum meaningful).
//
// The result's Sels and Products alias the estimator's buffers and are valid
// until the next Estimate call; callers that retain them copy them.
func (e *Estimator) Estimate(s CounterSample, cfg EstimatorConfig) (Estimation, error) {
	p := len(cfg.Widths)
	if p == 0 {
		return Estimation{}, fmt.Errorf("core: no operators to estimate")
	}
	if s.N <= 0 {
		return Estimation{}, fmt.Errorf("core: non-positive sample size %v", s.N)
	}
	cfg.setDefaults()
	qualFrac := s.Qualifying / s.N
	if qualFrac < 0 {
		qualFrac = 0
	}
	if qualFrac > 1 {
		qualFrac = 1
	}
	e.resize(p)
	if p == 1 {
		e.bestSels[0], e.bestProducts[0] = qualFrac, qualFrac
		return Estimation{
			Sels:     e.bestSels,
			Products: e.bestProducts,
			Cost:     0,
			Starts:   0,
		}, nil
	}

	if err := e.bounds.restrict(p, s.N, s.Qualifying, s.BNT); err != nil {
		return Estimation{}, err
	}
	e.bounds.productBounds(e.lo, e.hi)
	// The last product is pinned to the exact output fraction; only the
	// first p-1 products are free.
	lo, hi := e.lo[:p-1], e.hi[:p-1]

	e.s, e.qualFrac, e.evals = s, qualFrac, 0
	e.modelErr = e.model.Reset(peo.Params{
		N:         int(s.N),
		Widths:    cfg.Widths,
		AggWidths: cfg.AggWidths,
		Geometry:  cfg.Geometry,
		Chain:     cfg.Chain,
	})
	e.weights = CounterWeights{BNT: 1, L3: 1, MPNotTaken: 1, MPTaken: 1}
	if cfg.Weights != nil {
		e.weights = *cfg.Weights
	}
	if e.objective == nil {
		e.objective = e.objectiveAt
	}

	// Null hypothesis: overall selectivity splits evenly, so products decay
	// geometrically toward qualFrac.
	null := e.null
	perPred := math.Pow(math.Max(qualFrac, 1e-12), 1/float64(p))
	prod := 1.0
	for i := range null {
		prod *= perPred
		null[i] = prod
	}
	if err := e.gen.Reset(lo, hi, null); err != nil {
		return Estimation{}, err
	}

	best := Estimation{Cost: math.Inf(1)}
	noImprove := 0
	starts := 0
	for starts < cfg.MaxStarts && noImprove < noImproveLimit {
		res, err := e.nm.minimize(e.objective, e.gen.next(e.x0), NMOptions{
			MaxIter: cfg.MaxIterNM,
			AbsTol:  cfg.AbsTol,
			Lo:      lo,
			Hi:      hi,
		})
		if err != nil {
			return Estimation{}, err
		}
		starts++
		if res.F < best.Cost-cfg.AbsTol {
			e.selsOf(e.bestSels, res.X)
			pr := 1.0
			for i, sl := range e.bestSels {
				pr *= sl
				e.bestProducts[i] = pr
			}
			best = Estimation{Sels: e.bestSels, Products: e.bestProducts, Cost: res.F}
			noImprove = 0
			// A start that drove the counter mismatch below the tolerance
			// cannot be improved upon meaningfully; stop early to keep the
			// run-time optimization budget small (§4.4's trade-off).
			if best.Cost <= cfg.AbsTol {
				break
			}
		} else {
			noImprove++
		}
	}
	best.Starts = starts
	best.NMEvaluations = e.evals
	if best.Sels == nil {
		// No start beat +Inf (the objective is +Inf everywhere when the
		// forward model rejects the parameters): fall back to the null
		// hypothesis.
		e.selsOf(e.bestSels, null)
		best.Sels = e.bestSels
	}
	return best, nil
}

// resize sets every per-predicate buffer to p predicates (p-1 free
// dimensions), reallocating only when p exceeds what the estimator has seen.
func (e *Estimator) resize(p int) {
	if cap(e.sels) < p {
		buf := make([]float64, 7*p)
		e.sels, e.bestSels, e.bestProducts = buf[0:p:p], buf[p:2*p:2*p], buf[2*p:3*p:3*p]
		e.lo, e.hi = buf[3*p:4*p:4*p], buf[4*p:5*p:5*p]
		e.null, e.x0 = buf[5*p:6*p:6*p], buf[6*p:7*p]
	}
	e.sels, e.bestSels, e.bestProducts = e.sels[:p], e.bestSels[:p], e.bestProducts[:p]
	e.lo, e.hi = e.lo[:p], e.hi[:p]
	e.null, e.x0 = e.null[:p-1], e.x0[:p-1]
}

// selsOf converts a point x of the search space (the first p-1 cumulative
// products; the last is pinned to qualFrac) into per-predicate selectivities
// written to sels, and returns the penalty for products that grow along the
// order, which no selectivity vector can produce.
func (e *Estimator) selsOf(sels, x []float64) float64 {
	p := len(sels)
	penalty := 0.0
	prev := 1.0
	for i := 0; i < p; i++ {
		var prod float64
		if i < p-1 {
			prod = x[i]
		} else {
			prod = e.qualFrac
		}
		if prod > prev {
			penalty += (prod - prev) * e.s.N * 10
			prod = prev
		}
		if prev <= 0 {
			sels[i] = 0
		} else {
			sels[i] = prod / prev
		}
		if sels[i] > 1 {
			sels[i] = 1
		}
		if sels[i] < 0 {
			sels[i] = 0
		}
		prev = prod
	}
	return penalty
}

// objectiveAt is the Eq. (10) objective at x: the weighted absolute
// difference between the sampled and the modelled counters.
func (e *Estimator) objectiveAt(x []float64) float64 {
	e.evals++
	penalty := e.selsOf(e.sels, x)
	if e.modelErr != nil {
		return math.Inf(1)
	}
	est, err := e.model.Counters(e.sels)
	if err != nil {
		return math.Inf(1)
	}
	s, w := &e.s, &e.weights
	return w.BNT*math.Abs(s.BNT-est.BNT) +
		w.L3*math.Abs(s.L3-est.L3) +
		w.MPNotTaken*math.Abs(s.MPNotTaken-est.MPNotTaken) +
		w.MPTaken*math.Abs(s.MPTaken-est.MPTaken) +
		penalty
}

// AscendingOrder returns the positions of sels sorted by increasing
// selectivity — the reorder the paper applies after estimation (most
// selective predicate first).
func AscendingOrder(sels []float64) []int {
	idx := make([]int, len(sels))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && sels[idx[j]] < sels[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}
