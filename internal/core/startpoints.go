package core

import (
	"fmt"
	"slices"
)

// StartPointGen produces the start-point sequence of §4.3 for the non-linear
// optimization over a d-dimensional box: the null-hypothesis point first
// (overall selectivity split evenly over the predicates — C1 in the paper's
// Figure 9), then the 2^d vertices of the box, then, indefinitely, the
// centroid of the largest sub-space induced by splitting at every point
// emitted so far (C2..C6 in Figure 9).
//
// For d > maxSplitDims the 2^d box bookkeeping is replaced by a
// deterministic low-discrepancy (Halton) sequence over the box, which keeps
// the "explore the largest unseen region" intent without exponential state.
//
// A generator is reusable: Reset starts a new sequence over another box and
// keeps the buffers, so the estimator's one generator per run stops
// allocating once it has seen its largest box count.
type StartPointGen struct {
	lo, hi    []float64
	null      []float64
	d         int
	stage     int // 0: null, 1: vertices, 2: centroids
	vertexIdx int
	// boxes is the exact splitting scheme's state; it stays empty for d >
	// maxSplitDims, where centroids come from the Halton sequence instead.
	boxes []spBox
	// coords holds every box's corners: box b's lower corner is
	// coords[b.off:b.off+d], its upper corner the d values after that. Boxes
	// refer to it by offset, so growing it never invalidates a box.
	coords []float64
	halton int
}

type spBox struct {
	off int
	vol float64
}

// maxSplitDims bounds the dimensionality of the exact splitting scheme.
const maxSplitDims = 6

// NewStartPointGen builds a generator over the box [lo, hi] with the given
// null-hypothesis point (clamped into the box).
func NewStartPointGen(lo, hi, null []float64) (*StartPointGen, error) {
	g := new(StartPointGen)
	if err := g.Reset(lo, hi, null); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset restarts the generator over the box [lo, hi] with the given
// null-hypothesis point (clamped into the box). The arguments are copied.
func (g *StartPointGen) Reset(lo, hi, null []float64) error {
	d := len(lo)
	if d == 0 || len(hi) != d || len(null) != d {
		return fmt.Errorf("core: start points need consistent dimensions (lo %d, hi %d, null %d)",
			len(lo), len(hi), len(null))
	}
	for i := range lo {
		if hi[i] < lo[i] {
			return fmt.Errorf("core: dimension %d has empty range [%v,%v]", i, lo[i], hi[i])
		}
	}
	g.lo = append(g.lo[:0], lo...)
	g.hi = append(g.hi[:0], hi...)
	g.null = append(g.null[:0], null...)
	for i, v := range g.null {
		if v < lo[i] {
			g.null[i] = lo[i]
		}
		if g.null[i] > hi[i] {
			g.null[i] = hi[i]
		}
	}
	g.d = d
	g.stage, g.vertexIdx, g.halton = 0, 0, 0
	g.boxes, g.coords = g.boxes[:0], g.coords[:0]
	if d <= maxSplitDims {
		g.coords = append(append(g.coords, g.lo...), g.hi...)
		g.boxes = append(g.boxes, spBox{off: 0, vol: g.volume(0)})
	}
	return nil
}

func (g *StartPointGen) boxLo(off int) []float64 { return g.coords[off : off+g.d] }
func (g *StartPointGen) boxHi(off int) []float64 { return g.coords[off+g.d : off+2*g.d] }

func (g *StartPointGen) volume(off int) float64 {
	lo, hi := g.boxLo(off), g.boxHi(off)
	vol := 1.0
	for i := range lo {
		vol *= hi[i] - lo[i]
	}
	return vol
}

// Next returns the next start point in a fresh slice. The sequence is
// infinite.
func (g *StartPointGen) Next() []float64 {
	return g.next(make([]float64, g.d))
}

// next writes the next start point into pt (length d) and returns it.
func (g *StartPointGen) next(pt []float64) []float64 {
	switch {
	case g.stage == 0:
		g.stage = 1
		g.splitAt(g.null)
		copy(pt, g.null)
	case g.stage == 1:
		for i := 0; i < g.d; i++ {
			if g.vertexIdx&(1<<i) != 0 {
				pt[i] = g.hi[i]
			} else {
				pt[i] = g.lo[i]
			}
		}
		g.vertexIdx++
		if g.vertexIdx >= 1<<g.d || g.vertexIdx >= 64 {
			g.stage = 2
		}
	default:
		g.centroidPoint(pt)
	}
	return pt
}

// splitAt replaces the box containing pt with the 2^d sub-boxes induced by
// splitting at pt (no-op in Halton mode, which has no boxes, or when pt lies
// on a box face).
func (g *StartPointGen) splitAt(pt []float64) {
	idx := -1
	for i, b := range g.boxes {
		lo, hi := g.boxLo(b.off), g.boxHi(b.off)
		inside := true
		for j := range pt {
			if pt[j] <= lo[j] || pt[j] >= hi[j] {
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
	// Reserve every sub-box up front so parentLo/parentHi stay valid while
	// the sub-boxes are appended.
	g.coords = slices.Grow(g.coords, 2*g.d<<g.d)
	parentLo, parentHi := g.boxLo(parent.off), g.boxHi(parent.off)
	for mask := 0; mask < 1<<g.d; mask++ {
		off := len(g.coords)
		g.coords = g.coords[:off+2*g.d]
		lo, hi := g.boxLo(off), g.boxHi(off)
		for j := 0; j < g.d; j++ {
			if mask&(1<<j) != 0 {
				lo[j], hi[j] = pt[j], parentHi[j]
			} else {
				lo[j], hi[j] = parentLo[j], pt[j]
			}
		}
		if vol := g.volume(off); vol > 0 {
			g.boxes = append(g.boxes, spBox{off: off, vol: vol})
		} else {
			g.coords = g.coords[:off]
		}
	}
}

func (g *StartPointGen) centroidPoint(pt []float64) {
	best := -1
	for i, b := range g.boxes {
		if best < 0 || b.vol > g.boxes[best].vol {
			best = i
		}
	}
	if best < 0 {
		g.haltonPoint(pt)
		return
	}
	lo, hi := g.boxLo(g.boxes[best].off), g.boxHi(g.boxes[best].off)
	for j := range pt {
		pt[j] = (lo[j] + hi[j]) / 2
	}
	g.splitAt(pt)
}

// primes for the Halton fallback.
var haltonPrimes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

func (g *StartPointGen) haltonPoint(pt []float64) {
	g.halton++
	for j := 0; j < g.d; j++ {
		base := haltonPrimes[j%len(haltonPrimes)]
		f, r := 1.0, 0.0
		for i := g.halton; i > 0; i /= base {
			f /= float64(base)
			r += float64(f * float64(i%base))
		}
		pt[j] = g.lo[j] + float64(r*(g.hi[j]-g.lo[j]))
	}
}
