package core

// The allocating estimator as it stood before the scratch-owning Estimator:
// Nelder-Mead with a fresh simplex and fresh reflect/expand/contract vectors
// per iteration and sort.Slice, the closure-based EstimateSelectivities, the
// §4.1 bounds, the §4.3 start-point generator with one slice pair per box,
// and the per-call forward model. Kept verbatim (names suffixed Ref) as the
// oracle the production estimator must match bit for bit; see
// estimator_oracle_test.go.

import (
	"fmt"
	"math"
	"sort"

	"progopt/internal/costmodel/peo"
)

func estimateSelectivitiesRef(s CounterSample, cfg EstimatorConfig) (Estimation, error) {
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
	if p == 1 {
		return Estimation{
			Sels:     []float64{qualFrac},
			Products: []float64{qualFrac},
			Cost:     0,
			Starts:   0,
		}, nil
	}

	bounds, err := restrictRef(p, s.N, s.Qualifying, s.BNT)
	if err != nil {
		return Estimation{}, err
	}
	prodLo, prodHi := productBoundsRef(bounds)
	// The last product is pinned to the exact output fraction; only the
	// first p-1 products are free.
	lo, hi := prodLo[:p-1], prodHi[:p-1]

	params := peo.Params{
		N:         int(s.N),
		Widths:    cfg.Widths,
		AggWidths: cfg.AggWidths,
		Geometry:  cfg.Geometry,
		Chain:     cfg.Chain,
	}

	evals := 0
	selsOf := func(x []float64) ([]float64, float64) {
		sels := make([]float64, p)
		penalty := 0.0
		prev := 1.0
		for i := 0; i < p; i++ {
			var prod float64
			if i < p-1 {
				prod = x[i]
			} else {
				prod = qualFrac
			}
			if prod > prev {
				penalty += (prod - prev) * s.N * 10
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
		return sels, penalty
	}
	w := cfg.Weights
	if w == nil {
		w = &CounterWeights{BNT: 1, L3: 1, MPNotTaken: 1, MPTaken: 1}
	}
	objective := func(x []float64) float64 {
		evals++
		sels, penalty := selsOf(x)
		est, err := countersRef(params, sels)
		if err != nil {
			return math.Inf(1)
		}
		return w.BNT*math.Abs(s.BNT-est.BNT) +
			w.L3*math.Abs(s.L3-est.L3) +
			w.MPNotTaken*math.Abs(s.MPNotTaken-est.MPNotTaken) +
			w.MPTaken*math.Abs(s.MPTaken-est.MPTaken) +
			penalty
	}

	// Null hypothesis: overall selectivity splits evenly, so products decay
	// geometrically toward qualFrac.
	null := make([]float64, p-1)
	perPred := math.Pow(math.Max(qualFrac, 1e-12), 1/float64(p))
	prod := 1.0
	for i := range null {
		prod *= perPred
		null[i] = prod
	}
	gen, err := newStartPointGenRef(lo, hi, null)
	if err != nil {
		return Estimation{}, err
	}

	best := Estimation{Cost: math.Inf(1)}
	noImprove := 0
	starts := 0
	for starts < cfg.MaxStarts && noImprove < noImproveLimit {
		x0 := gen.Next()
		res, err := nelderMeadRef(objective, x0, NMOptions{
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
			sels, _ := selsOf(res.X)
			products := make([]float64, p)
			pr := 1.0
			for i, sl := range sels {
				pr *= sl
				products[i] = pr
			}
			best = Estimation{Sels: sels, Products: products, Cost: res.F}
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
	best.NMEvaluations = evals
	if best.Sels == nil {
		// Every start failed to beat +Inf (cannot happen with a finite
		// objective, but stay defensive): fall back to the null hypothesis.
		sels, _ := selsOf(null)
		best.Sels = sels
	}
	return best, nil
}

func nelderMeadRef(f func([]float64) float64, x0 []float64, opt NMOptions) (NMResult, error) {
	d := len(x0)
	if d == 0 {
		return NMResult{}, fmt.Errorf("core: zero-dimensional optimization")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10000
	}
	if opt.AbsTol <= 0 {
		opt.AbsTol = 1e-8
	}
	if opt.Lo != nil && len(opt.Lo) != d {
		return NMResult{}, fmt.Errorf("core: lower bound dimension %d != %d", len(opt.Lo), d)
	}
	if opt.Hi != nil && len(opt.Hi) != d {
		return NMResult{}, fmt.Errorf("core: upper bound dimension %d != %d", len(opt.Hi), d)
	}

	evals := 0
	clamp := func(x []float64) {
		for i := range x {
			if opt.Lo != nil && x[i] < opt.Lo[i] {
				x[i] = opt.Lo[i]
			}
			if opt.Hi != nil && x[i] > opt.Hi[i] {
				x[i] = opt.Hi[i]
			}
		}
	}
	eval := func(x []float64) float64 {
		clamp(x)
		evals++
		return f(x)
	}

	// Initial simplex: x0 plus d vertices offset along each axis.
	simplex := make([][]float64, d+1)
	values := make([]float64, d+1)
	simplex[0] = append([]float64(nil), x0...)
	clamp(simplex[0])
	values[0] = eval(simplex[0])
	for i := 0; i < d; i++ {
		v := append([]float64(nil), simplex[0]...)
		h := nmInitialStep
		if opt.Lo != nil && opt.Hi != nil {
			h = nmInitialStep * (opt.Hi[i] - opt.Lo[i])
			if h == 0 {
				h = 1e-12
			}
		}
		// Step toward the interior if at the upper bound.
		if opt.Hi != nil && v[i]+h > opt.Hi[i] {
			v[i] -= h
		} else {
			v[i] += h
		}
		simplex[i+1] = v
		values[i+1] = eval(v)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	order := make([]int, d+1)
	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
		best, worst := order[0], order[d]
		if math.Abs(values[worst]-values[best]) < opt.AbsTol {
			break
		}
		// Centroid of all but the worst.
		centroid := make([]float64, d)
		for _, idx := range order[:d] {
			for j := range centroid {
				centroid[j] += simplex[idx][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(d)
		}
		// Reflection.
		refl := make([]float64, d)
		for j := range refl {
			refl[j] = centroid[j] + alpha*(centroid[j]-simplex[worst][j])
		}
		fRefl := eval(refl)
		secondWorst := order[d-1]
		switch {
		case fRefl < values[best]:
			// Expansion.
			expd := make([]float64, d)
			for j := range expd {
				expd[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fExp := eval(expd); fExp < fRefl {
				simplex[worst], values[worst] = expd, fExp
			} else {
				simplex[worst], values[worst] = refl, fRefl
			}
		case fRefl < values[secondWorst]:
			simplex[worst], values[worst] = refl, fRefl
		default:
			// Contraction.
			contr := make([]float64, d)
			for j := range contr {
				contr[j] = centroid[j] + rho*(simplex[worst][j]-centroid[j])
			}
			if fContr := eval(contr); fContr < values[worst] {
				simplex[worst], values[worst] = contr, fContr
			} else {
				// Shrink toward the best vertex.
				for _, idx := range order[1:] {
					for j := range simplex[idx] {
						simplex[idx][j] = simplex[best][j] + sigma*(simplex[idx][j]-simplex[best][j])
					}
					values[idx] = eval(simplex[idx])
				}
			}
		}
	}

	bestIdx := 0
	for i := 1; i <= d; i++ {
		if values[i] < values[bestIdx] {
			bestIdx = i
		}
	}
	return NMResult{
		X:           simplex[bestIdx],
		F:           values[bestIdx],
		Iterations:  iter,
		Evaluations: evals,
	}, nil
}

func restrictRef(p int, tupsIn, tupsOut, bntSampled float64) (Bounds, error) {
	if p <= 0 {
		return Bounds{}, fmt.Errorf("core: non-positive predicate count %d", p)
	}
	if tupsIn <= 0 {
		return Bounds{}, fmt.Errorf("core: non-positive input cardinality %v", tupsIn)
	}
	if tupsOut < 0 || tupsOut > tupsIn {
		return Bounds{}, fmt.Errorf("core: output cardinality %v outside [0, %v]", tupsOut, tupsIn)
	}
	if bntSampled < 0 {
		return Bounds{}, fmt.Errorf("core: negative sampled BNT %v", bntSampled)
	}
	b := Bounds{
		TupsIn:     tupsIn,
		TupsOut:    tupsOut,
		BNT:        bntSampled,
		UpperTuple: make([]float64, p),
		LowerTuple: make([]float64, p),
		UpperBNT:   make([]float64, p),
		LowerBNT:   make([]float64, p),
	}
	for i := 0; i < p; i++ {
		// Eq. (6)/(7): only the last access count is pinned to the output.
		if i == p-1 {
			b.UpperTuple[i] = tupsOut
		} else {
			b.UpperTuple[i] = tupsIn
		}
		b.LowerTuple[i] = tupsOut

		if i == p-1 {
			b.UpperBNT[i] = tupsOut
			b.LowerBNT[i] = tupsOut
			continue
		}
		// Eq. (8): positions 0..i all take the same maximal value x while
		// later positions take tupsOut: (i+1)*x + (p-1-i)*tupsOut = BNT.
		up := (bntSampled - float64(p-1-i)*tupsOut) / float64(i+1)
		if up > tupsIn {
			up = tupsIn
		}
		if up < tupsOut {
			up = tupsOut
		}
		b.UpperBNT[i] = up

		// Eq. (9), corrected divisor: positions before i maxed at tupsIn,
		// last pinned at tupsOut, remainder spread over p-1-i positions of
		// which position i is the largest.
		lo := (bntSampled - tupsOut - float64(i)*tupsIn) / float64(p-1-i)
		if lo < tupsOut {
			lo = tupsOut
		}
		if lo > b.UpperBNT[i] {
			lo = b.UpperBNT[i]
		}
		b.LowerBNT[i] = lo
	}
	return b, nil
}

func productBoundsRef(b Bounds) (lo, hi []float64) {
	p := len(b.UpperBNT)
	lo = make([]float64, p)
	hi = make([]float64, p)
	for i := 0; i < p; i++ {
		lo[i] = b.LowerBNT[i] / b.TupsIn
		hi[i] = b.UpperBNT[i] / b.TupsIn
	}
	return lo, hi
}

type startPointGenRef struct {
	lo, hi    []float64
	null      []float64
	d         int
	stage     int // 0: null, 1: vertices, 2: centroids
	vertexIdx int
	boxes     []spBoxRef
	halton    int
}

type spBoxRef struct {
	lo, hi []float64
	vol    float64
}

// newStartPointGenRef builds a generator over the box [lo, hi] with the given
// null-hypothesis point (clamped into the box).
func newStartPointGenRef(lo, hi, null []float64) (*startPointGenRef, error) {
	d := len(lo)
	if d == 0 || len(hi) != d || len(null) != d {
		return nil, fmt.Errorf("core: start points need consistent dimensions (lo %d, hi %d, null %d)",
			len(lo), len(hi), len(null))
	}
	for i := range lo {
		if hi[i] < lo[i] {
			return nil, fmt.Errorf("core: dimension %d has empty range [%v,%v]", i, lo[i], hi[i])
		}
	}
	n := append([]float64(nil), null...)
	for i := range n {
		if n[i] < lo[i] {
			n[i] = lo[i]
		}
		if n[i] > hi[i] {
			n[i] = hi[i]
		}
	}
	g := &startPointGenRef{
		lo:   append([]float64(nil), lo...),
		hi:   append([]float64(nil), hi...),
		null: n,
		d:    d,
	}
	if d <= maxSplitDims {
		g.boxes = []spBoxRef{makeBoxRef(g.lo, g.hi)}
	}
	return g, nil
}

func makeBoxRef(lo, hi []float64) spBoxRef {
	vol := 1.0
	for i := range lo {
		vol *= hi[i] - lo[i]
	}
	return spBoxRef{lo: append([]float64(nil), lo...), hi: append([]float64(nil), hi...), vol: vol}
}

// Next returns the next start point. The sequence is infinite.
func (g *startPointGenRef) Next() []float64 {
	switch {
	case g.stage == 0:
		g.stage = 1
		g.split(g.null)
		return append([]float64(nil), g.null...)
	case g.stage == 1:
		v := make([]float64, g.d)
		for i := 0; i < g.d; i++ {
			if g.vertexIdx&(1<<i) != 0 {
				v[i] = g.hi[i]
			} else {
				v[i] = g.lo[i]
			}
		}
		g.vertexIdx++
		if g.vertexIdx >= 1<<g.d || g.vertexIdx >= 64 {
			g.stage = 2
		}
		return v
	default:
		return g.centroidPoint()
	}
}

// split replaces the box containing pt with the 2^d sub-boxes induced by
// splitting at pt (no-op in Halton mode or when pt lies on a box face).
func (g *startPointGenRef) split(pt []float64) {
	if g.boxes == nil {
		return
	}
	idx := -1
	for i, b := range g.boxes {
		inside := true
		for j := range pt {
			if pt[j] <= b.lo[j] || pt[j] >= b.hi[j] {
				inside = false
				break
			}
		}
		if inside {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	parent := g.boxes[idx]
	g.boxes = append(g.boxes[:idx], g.boxes[idx+1:]...)
	for mask := 0; mask < 1<<g.d; mask++ {
		lo := make([]float64, g.d)
		hi := make([]float64, g.d)
		for j := 0; j < g.d; j++ {
			if mask&(1<<j) != 0 {
				lo[j], hi[j] = pt[j], parent.hi[j]
			} else {
				lo[j], hi[j] = parent.lo[j], pt[j]
			}
		}
		b := makeBoxRef(lo, hi)
		if b.vol > 0 {
			g.boxes = append(g.boxes, b)
		}
	}
}

func (g *startPointGenRef) centroidPoint() []float64 {
	if g.boxes == nil {
		return g.haltonPoint()
	}
	best := -1
	for i, b := range g.boxes {
		if best < 0 || b.vol > g.boxes[best].vol {
			best = i
		}
	}
	if best < 0 {
		return g.haltonPoint()
	}
	b := g.boxes[best]
	c := make([]float64, g.d)
	for j := range c {
		c[j] = (b.lo[j] + b.hi[j]) / 2
	}
	g.split(c)
	return c
}

func (g *startPointGenRef) haltonPoint() []float64 {
	g.halton++
	p := make([]float64, g.d)
	for j := 0; j < g.d; j++ {
		base := haltonPrimes[j%len(haltonPrimes)]
		f, r := 1.0, 0.0
		for i := g.halton; i > 0; i /= base {
			f /= float64(base)
			r += f * float64(i%base)
		}
		p[j] = g.lo[j] + r*(g.hi[j]-g.lo[j])
	}
	return p
}

func countersRef(par peo.Params, sels []float64) (peo.Estimate, error) {
	if par.N <= 0 || len(par.Widths) == 0 || len(sels) != len(par.Widths) {
		return peo.Estimate{}, fmt.Errorf("peo: invalid parameters")
	}
	for _, w := range par.Widths {
		if w <= 0 {
			return peo.Estimate{}, fmt.Errorf("peo: invalid parameters")
		}
	}
	n := float64(par.N)
	var est peo.Estimate
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
		r := par.Chain.Predict(sel)
		est.MPTaken += r.MPTaken * input
		est.MPNotTaken += r.MPNotTaken * input
		// Column of predicate i is read for every tuple reaching it: a
		// conditional-read pattern with access probability prod (sequential
		// scan when prod == 1).
		est.L3 += par.Geometry.CondReadAccesses(par.N, par.Widths[i], prod).Accesses
		prod *= sel
	}
	// Loop-back branch: taken once per tuple, fully predictable.
	est.BTaken += n
	for _, w := range par.AggWidths {
		est.L3 += par.Geometry.CondReadAccesses(par.N, w, prod).Accesses
	}
	est.Qualifying = n * prod
	return est, nil
}
