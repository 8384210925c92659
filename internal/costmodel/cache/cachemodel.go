// Package cache implements the paper's cache cost model (§3.1): the Pirk et
// al. access pattern of a sequential scan with conditional read, extended to
// double-count random misses, and the alternative equi-join random-miss model
// the paper grounds in the external memory model (Eq. 1 and 2).
package cache

import (
	"fmt"
	"math"
)

// Geometry carries the cache parameters the model needs.
type Geometry struct {
	// LineSize is the cache-line size in bytes (the paper's B_i).
	LineSize int
	// CapacityLines is the capacity of the modelled level in lines (#_i).
	CapacityLines int
}

func (g Geometry) validate() error {
	if g.LineSize <= 0 {
		return fmt.Errorf("cachemodel: non-positive line size %d", g.LineSize)
	}
	if g.CapacityLines < 0 {
		return fmt.Errorf("cachemodel: negative capacity %d", g.CapacityLines)
	}
	return nil
}

// Lines returns the number of cache lines covering n values of the given
// width in a contiguous column.
func (g Geometry) Lines(n int, width int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Ceil(float64(n) * float64(width) / float64(g.LineSize))
}

// CondRead is the result of the sequential-scan-with-conditional-read
// pattern.
type CondRead struct {
	// Touched is the expected number of distinct lines demanded.
	Touched float64
	// Random is the expected number of random accesses: a demanded line whose
	// predecessor line was skipped.
	Random float64
	// Accesses is the modelled line-access count with the paper's
	// modification: random accesses are double counted, because the line the
	// prefetcher predicted goes unused while the demanded line costs a fresh
	// access.
	Accesses float64
}

// CondReadAccesses models a column read only for tuples that qualified all
// previous predicates, each independently with probability access (the
// selectivity product of the preceding predicates).
func (g Geometry) CondReadAccesses(n int, width int, access float64) CondRead {
	return g.CondReadColumn(n, width).Accesses(access)
}

// CondReadColumn is the part of the conditional-read pattern that does not
// depend on the access probability: the column's covering lines and values
// per line. The selectivity estimator evaluates one column at thousands of
// probabilities per decision, so it builds the column once.
type CondReadColumn struct {
	n          int
	lines, vpl float64
}

// CondReadColumn prepares the conditional-read pattern of n values of the
// given width.
func (g Geometry) CondReadColumn(n int, width int) CondReadColumn {
	vpl := float64(g.LineSize) / float64(width)
	if vpl < 1 {
		vpl = 1
	}
	return CondReadColumn{n: n, lines: g.Lines(n, width), vpl: vpl}
}

// Accesses evaluates the pattern at one access probability.
func (c CondReadColumn) Accesses(access float64) CondRead {
	if access <= 0 || c.n <= 0 {
		return CondRead{}
	}
	if access > 1 {
		access = 1
	}
	// Probability at least one of the ~vpl tuples on a line is accessed.
	pTouch := 1 - math.Pow(1-access, c.vpl)
	touched := float64(c.lines * pTouch)
	// A touched line is a random access when the preceding line was skipped.
	random := float64(c.lines * pTouch * (1 - pTouch))
	return CondRead{
		Touched:  touched,
		Random:   random,
		Accesses: touched + random,
	}
}

// Yao returns the expected number of distinct lines of a relation touched by
// r uniformly random accesses — the paper's Eq. (2), evaluated over lines:
//
//	C_i = L * (1 - (1 - 1/L)^r)  with L = lines covering the relation.
func (g Geometry) Yao(relTuples, width, r int) float64 {
	lines := g.Lines(relTuples, width)
	if lines == 0 || r <= 0 {
		return 0
	}
	return lines * (1 - math.Pow(1-1/lines, float64(r)))
}

// RandomMisses is the paper's Eq. (1): the expected number of cache misses
// caused by r uniformly random accesses to a relation of relTuples tuples of
// the given width.
//
//	M_r = C_i                          if C_i < #_i   (fits: only cold misses)
//	M_r = r * (1 - #_i*B_i/(R.n*R.w))  otherwise      (hit probability is the
//	                                                   cached fraction)
func (g Geometry) RandomMisses(relTuples, width, r int) float64 {
	ci := g.Yao(relTuples, width, r)
	cap := float64(g.CapacityLines)
	if ci < cap {
		return ci
	}
	relBytes := float64(relTuples) * float64(width)
	if relBytes <= 0 {
		return 0
	}
	frac := 1 - cap*float64(g.LineSize)/relBytes
	if frac < 0 {
		frac = 0
	}
	return float64(r) * frac
}

// NewGeometry validates and returns a Geometry.
func NewGeometry(lineSize, capacityLines int) (Geometry, error) {
	g := Geometry{LineSize: lineSize, CapacityLines: capacityLines}
	if err := g.validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// MustGeometry is NewGeometry that panics on invalid input.
func MustGeometry(lineSize, capacityLines int) Geometry {
	g, err := NewGeometry(lineSize, capacityLines)
	if err != nil {
		panic(err)
	}
	return g
}
