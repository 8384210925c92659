package datagen

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestUniformRanges(t *testing.T) {
	rng := NewRNG(1)
	for _, v := range UniformInt64(rng, 1000, -5, 5) {
		if v < -5 || v > 5 {
			t.Fatalf("int64 draw %d outside [-5,5]", v)
		}
	}
	for _, v := range UniformInt32(rng, 1000, 10, 20) {
		if v < 10 || v > 20 {
			t.Fatalf("int32 draw %d outside [10,20]", v)
		}
	}
	for _, v := range UniformFloat64(rng, 1000, 0.25, 0.75) {
		if v < 0.25 || v >= 0.75 {
			t.Fatalf("float draw %v outside [0.25,0.75)", v)
		}
	}
}

func TestUniformPanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty range did not panic")
		}
	}()
	UniformInt64(NewRNG(1), 1, 5, 4)
}

func TestUniformCoversDomain(t *testing.T) {
	rng := NewRNG(2)
	seen := map[int64]bool{}
	for _, v := range UniformInt64(rng, 5000, 1, 50) {
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Errorf("uniform draw over 50 values covered %d", len(seen))
	}
}

func TestAscending(t *testing.T) {
	a := Ascending(5)
	for i, v := range a {
		if v != int64(i) {
			t.Fatalf("Ascending[%d] = %d", i, v)
		}
	}
}

func isPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestWindowPermutationIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint16) bool {
		n := int(nRaw%500) + 1
		w := int(wRaw % 600)
		return isPermutation(WindowPermutation(NewRNG(seed), n, w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindowPermutationIdentityAtWindowOne(t *testing.T) {
	p := WindowPermutation(NewRNG(1), 100, 1)
	for i, v := range p {
		if v != i {
			t.Fatalf("window=1 permuted position %d -> %d", i, v)
		}
	}
}

// maxDisplacement measures how far any element moved.
func maxDisplacement(p []int) int {
	m := 0
	for i, v := range p {
		d := i - v
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestWindowPermutationBoundsDisplacementOrder(t *testing.T) {
	// Displacement grows with window: a window-4 shuffle stays far more local
	// than a window-1000 shuffle. (The windowed swap chain can move an
	// element more than one window, but locality must still be ordered.)
	small := maxDisplacement(WindowPermutation(NewRNG(7), 5000, 4))
	large := maxDisplacement(WindowPermutation(NewRNG(7), 5000, 1000))
	if small >= large {
		t.Errorf("window 4 displacement %d >= window 1000 displacement %d", small, large)
	}
	if small > 64 {
		t.Errorf("window 4 produced displacement %d, far beyond local", small)
	}
}

func TestGroupPermutationStaysInGroups(t *testing.T) {
	groups := []int32{0, 0, 0, 1, 1, 2, 2, 2, 2, 3}
	p := GroupPermutation(NewRNG(5), groups)
	if !isPermutation(p) {
		t.Fatal("not a permutation")
	}
	for i, src := range p {
		if groups[i] != groups[src] {
			t.Fatalf("position %d (group %d) filled from group %d", i, groups[i], groups[src])
		}
	}
}

func TestGroupPermutationShuffles(t *testing.T) {
	groups := make([]int32, 1000) // one big group: must actually shuffle
	p := GroupPermutation(NewRNG(6), groups)
	moved := 0
	for i, v := range p {
		if i != v {
			moved++
		}
	}
	if moved < 900 {
		t.Errorf("only %d/1000 positions moved in a full-group shuffle", moved)
	}
}

func TestApplyPerm(t *testing.T) {
	perm := []int{2, 0, 1}
	if got := ApplyPermInt64([]int64{10, 20, 30}, perm); got[0] != 30 || got[1] != 10 || got[2] != 20 {
		t.Errorf("ApplyPermInt64 = %v", got)
	}
	if got := ApplyPermInt32([]int32{1, 2, 3}, perm); got[0] != 3 {
		t.Errorf("ApplyPermInt32 = %v", got)
	}
	if got := ApplyPermFloat64([]float64{0.1, 0.2, 0.3}, perm); got[0] != 0.3 {
		t.Errorf("ApplyPermFloat64 = %v", got)
	}
}

func TestWindowPermutationSortednessSpectrum(t *testing.T) {
	// Kendall-tau-ish proxy: count adjacent inversions after permuting an
	// ascending sequence; must increase with window size.
	inv := func(window int) int {
		p := WindowPermutation(NewRNG(11), 4000, window)
		data := ApplyPermInt64(Ascending(4000), p)
		c := 0
		for i := 1; i < len(data); i++ {
			if data[i] < data[i-1] {
				c++
			}
		}
		return c
	}
	results := []int{inv(1), inv(8), inv(64), inv(4000)}
	if !sort.IntsAreSorted(results) {
		t.Errorf("inversions not monotone over windows: %v", results)
	}
	if results[0] != 0 {
		t.Errorf("window 1 produced %d inversions", results[0])
	}
}
