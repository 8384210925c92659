package core

import (
	"fmt"
	"math"
	"sort"
)

// NMOptions configure the Nelder-Mead simplex search. The defaults follow
// the paper's tuning (§4.2): a maximum of 10k iterations and an absolute
// tolerance of one between successive best values.
type NMOptions struct {
	// MaxIter bounds the number of simplex iterations.
	MaxIter int
	// AbsTol terminates when the spread between the best and worst simplex
	// vertex values falls below it.
	AbsTol float64
	// Lo and Hi are per-dimension box bounds; points are clamped into the
	// box before evaluation. Nil means unbounded.
	Lo, Hi []float64
}

// nmInitialStep sizes the starting simplex relative to the box: 0.1 of the
// box width, or 0.1 absolute when unbounded.
const nmInitialStep = 0.1

// NMResult reports the optimization outcome.
type NMResult struct {
	// X is the best point found (clamped into the box).
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of simplex iterations performed.
	Iterations int
	// Evaluations counts objective calls (the re-optimization overhead the
	// progressive driver charges to the simulated CPU).
	Evaluations int
}

// nmWorkspace owns the vectors of a Nelder-Mead search so that repeated
// searches (one per start point, several per decision) allocate nothing once
// the workspace has grown to the problem's dimension.
type nmWorkspace struct {
	// rows holds the d+1 simplex vertices followed by the four scratch
	// vectors (centroid, reflection, expansion, contraction). A vertex that is
	// replaced swaps rows with the scratch vector that replaces it, so rows
	// stays a partition of buf and no iteration allocates.
	rows   [][]float64
	values []float64
	order  []int
	buf    []float64
}

// nmScratchRows is the number of scratch vectors after the simplex in rows.
const nmScratchRows = 4

func (w *nmWorkspace) resize(d int) {
	n := d + 1 + nmScratchRows
	if cap(w.buf) < n*d {
		w.buf = make([]float64, n*d)
	}
	if cap(w.rows) < n {
		w.rows = make([][]float64, n)
		w.values = make([]float64, d+1)
		w.order = make([]int, d+1)
	}
	w.rows, w.values, w.order = w.rows[:n], w.values[:d+1], w.order[:d+1]
	for i := range w.rows {
		w.rows[i] = w.buf[i*d : (i+1)*d : (i+1)*d]
	}
}

// sortOrder sorts order by ascending values[order[i]]. Up to 12 elements it
// is the insertion sort sort.Slice itself runs at that size (pdqsort's
// maxInsertion), so the permutation — which fixes the centroid's summation
// order and thus its bits — is the one sort.Slice produces; larger simplices
// call sort.Slice.
func sortOrder(order []int, values []float64) {
	if len(order) > 12 {
		sort.Slice(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
		return
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && values[order[j]] < values[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// minimize minimizes f starting from x0 using the Nelder-Mead simplex method
// (Nelder & Mead 1965), the algorithm the paper selected from NLopt for its
// selectivity estimation, on the workspace's vectors. The result's X aliases
// a workspace row and is valid until the next call.
func (w *nmWorkspace) minimize(f func([]float64) float64, x0 []float64, opt NMOptions) (NMResult, error) {
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

	w.resize(d)
	simplex, values, order := w.rows[:d+1], w.values, w.order
	// Positions of the scratch vectors in w.rows.
	iCentroid, iRefl, iExpd, iContr := d+1, d+2, d+3, d+4

	// Initial simplex: x0 plus d vertices offset along each axis.
	copy(simplex[0], x0)
	clamp(simplex[0])
	values[0] = eval(simplex[0])
	for i := 0; i < d; i++ {
		v := simplex[i+1]
		copy(v, simplex[0])
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
		values[i+1] = eval(v)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		for i := range order {
			order[i] = i
		}
		sortOrder(order, values)
		best, worst := order[0], order[d]
		if math.Abs(values[worst]-values[best]) < opt.AbsTol {
			break
		}
		// Centroid of all but the worst.
		centroid := w.rows[iCentroid]
		for j := range centroid {
			centroid[j] = 0
		}
		for _, idx := range order[:d] {
			for j := range centroid {
				centroid[j] += simplex[idx][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(d)
		}
		// Reflection.
		refl := w.rows[iRefl]
		for j := range refl {
			refl[j] = centroid[j] + alpha*(centroid[j]-simplex[worst][j])
		}
		fRefl := eval(refl)
		secondWorst := order[d-1]
		// replace makes scratch row i the worst vertex's replacement; the old
		// vertex becomes that scratch row.
		replace := func(i int, fv float64) {
			w.rows[worst], w.rows[i] = w.rows[i], w.rows[worst]
			values[worst] = fv
		}
		switch {
		case fRefl < values[best]:
			// Expansion.
			expd := w.rows[iExpd]
			for j := range expd {
				expd[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fExp := eval(expd); fExp < fRefl {
				replace(iExpd, fExp)
			} else {
				replace(iRefl, fRefl)
			}
		case fRefl < values[secondWorst]:
			replace(iRefl, fRefl)
		default:
			// Contraction.
			contr := w.rows[iContr]
			for j := range contr {
				contr[j] = centroid[j] + float64(rho*(simplex[worst][j]-centroid[j]))
			}
			if fContr := eval(contr); fContr < values[worst] {
				replace(iContr, fContr)
			} else {
				// Shrink toward the best vertex.
				for _, idx := range order[1:] {
					for j := range simplex[idx] {
						simplex[idx][j] = simplex[best][j] + float64(sigma*(simplex[idx][j]-simplex[best][j]))
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
