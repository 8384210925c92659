package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func geo() Geometry { return MustGeometry(64, 16384) } // 1 MB L3 in lines

func TestGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(0, 10); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := NewGeometry(64, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewGeometry(64, 16384); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestLines(t *testing.T) {
	g := geo()
	if got := g.Lines(16, 4); got != 1 {
		t.Errorf("16x4B = %v lines, want 1", got)
	}
	if got := g.Lines(17, 4); got != 2 {
		t.Errorf("17x4B = %v lines, want 2", got)
	}
	if got := g.Lines(0, 8); got != 0 {
		t.Errorf("0 tuples = %v lines, want 0", got)
	}
	if got := g.Lines(1000, 8); got != 125 {
		t.Errorf("1000x8B = %v lines, want 125", got)
	}
}

func TestCondReadExtremes(t *testing.T) {
	g := geo()
	n := 100000
	// access=1 touches every line with no random component.
	full := g.CondReadAccesses(n, 8, 1)
	if math.Abs(full.Touched-g.Lines(n, 8)) > 1e-6 {
		t.Errorf("access=1 touched %v lines, want all %v", full.Touched, g.Lines(n, 8))
	}
	if full.Random > 1e-6 {
		t.Errorf("access=1 random misses %v, want 0", full.Random)
	}
	// access=0 touches nothing.
	if z := g.CondReadAccesses(n, 8, 0); z.Accesses != 0 {
		t.Errorf("access=0 accesses %v, want 0", z.Accesses)
	}
	// Clamps access > 1.
	if c := g.CondReadAccesses(n, 8, 1.5); math.Abs(c.Accesses-full.Accesses) > 1e-9 {
		t.Error("access > 1 not clamped")
	}
}

func TestCondReadPlateau(t *testing.T) {
	// The paper's Figure 2 shape: accesses rise with selectivity and plateau
	// once every line is touched (~20% for 8-byte values).
	g := geo()
	n := 100000
	at := func(a float64) float64 { return g.CondReadAccesses(n, 8, a).Accesses }
	if !(at(0.001) < at(0.01) && at(0.01) < at(0.1)) {
		t.Error("accesses not increasing at low selectivity")
	}
	plateau := at(1)
	if math.Abs(at(0.5)-plateau) > plateau*0.01 {
		t.Errorf("no plateau: at(0.5)=%v, at(1)=%v", at(0.5), plateau)
	}
	// Mid-range overshoot from double-counted randoms: accesses around the
	// knee exceed touched lines.
	mid := g.CondReadAccesses(n, 8, 0.08)
	if mid.Accesses <= mid.Touched {
		t.Error("random misses not double counted")
	}
}

func TestCondReadRandomPeak(t *testing.T) {
	// Random component peaks where pTouch=0.5 and vanishes at the ends.
	g := geo()
	n := 1 << 20
	peak := 0.0
	for a := 0.001; a < 1; a *= 1.3 {
		r := g.CondReadAccesses(n, 8, a).Random
		if r > peak {
			peak = r
		}
	}
	lines := g.Lines(n, 8)
	if math.Abs(peak-lines/4) > lines*0.02 {
		t.Errorf("random peak %v, want ~lines/4 = %v", peak, lines/4)
	}
}

func TestYao(t *testing.T) {
	g := geo()
	// One access touches exactly one line.
	if got := g.Yao(1000000, 8, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("Yao(1 access) = %v", got)
	}
	// Infinite accesses converge to all lines.
	lines := g.Lines(100000, 8)
	if got := g.Yao(100000, 8, 100000000); math.Abs(got-lines) > lines*0.001 {
		t.Errorf("Yao(many) = %v, want ~%v", got, lines)
	}
	// Monotone in r.
	if g.Yao(100000, 8, 100) >= g.Yao(100000, 8, 10000) {
		t.Error("Yao not monotone in accesses")
	}
	if g.Yao(0, 8, 10) != 0 || g.Yao(100, 8, 0) != 0 {
		t.Error("Yao degenerate cases wrong")
	}
}

func TestRandomMissesRegimes(t *testing.T) {
	g := geo() // capacity 16384 lines = 1 MB
	// Small relation (fits in cache): misses equal distinct lines touched
	// (cold misses only).
	small := 1000 // 8 KB => 125 lines << capacity
	got := g.RandomMisses(small, 8, 100000)
	want := g.Yao(small, 8, 100000)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("fitting relation: misses %v, want Yao %v", got, want)
	}
	// Huge relation: misses ≈ r * (1 - cachedFraction).
	huge := 64 << 20 // 512 MB of 8B tuples
	r := 1000000
	got = g.RandomMisses(huge, 8, r)
	frac := 1 - float64(16384*64)/(float64(huge)*8)
	if math.Abs(got-float64(r)*frac) > 1 {
		t.Errorf("thrashing relation: misses %v, want %v", got, float64(r)*frac)
	}
	if got > float64(r) {
		t.Error("misses exceed accesses")
	}
}

func TestRandomMissesMonotoneInRelationSize(t *testing.T) {
	g := geo()
	f := func(rTuples uint32) bool {
		n := int(rTuples%1000000) + 1
		r := 50000
		m := g.RandomMisses(n, 8, r)
		return m >= 0 && m <= float64(r)+g.Lines(n, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Larger relations never miss less.
	prev := -1.0
	for _, n := range []int{1000, 10000, 100000, 1000000, 10000000} {
		m := g.RandomMisses(n, 8, 50000)
		if m < prev-1e-9 {
			t.Errorf("misses decreased for larger relation: %v after %v", m, prev)
		}
		prev = m
	}
}
