package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestRankOrderUniformWeightsMatchesAscending: with equal weights the rank
// criterion must reduce exactly to ascending selectivity, including ties.
func TestRankOrderUniformWeightsMatchesAscending(t *testing.T) {
	cases := [][]float64{
		{0.9, 0.1, 0.5},
		{0.5, 0.5, 0.1},
		{1.0, 0.2, 1.0, 0.2},
		{0.0, 0.0, 0.0},
	}
	for _, sels := range cases {
		w := make([]float64, len(sels))
		for i := range w {
			w[i] = 1
		}
		if got, want := rankOrder(make([]int, len(sels)), w, sels), AscendingOrder(sels); !reflect.DeepEqual(got, want) {
			t.Errorf("rankOrder(uniform, %v) = %v, want AscendingOrder %v", sels, got, want)
		}
	}
}

// TestRankOrderWeighted: a cheap predicate that keeps 58% belongs before an
// expensive 3-load probe that keeps 50% — selectivity ordering alone would
// swap them. The strongly filtering probe still goes first overall.
func TestRankOrderWeighted(t *testing.T) {
	weights := []float64{1, 3, 3} // predicate, orders probe, part probe
	sels := []float64{0.58, 0.05, 0.9}
	// ranks: 1/0.42=2.4, 3/0.95=3.2, 3/0.1=30.
	if got, want := rankOrder(make([]int, 3), weights, sels), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("rankOrder = %v, want %v", got, want)
	}
	// Plain selectivity would hoist the expensive probe above the predicate.
	if asc := AscendingOrder(sels); asc[0] != 1 || asc[1] != 0 {
		t.Fatalf("fixture lost its point: AscendingOrder = %v", asc)
	}
}

// TestRankOrderSaturated: estimates at (or numerically above) selectivity 1
// must not divide by zero; saturated operators order by selectivity then
// position, deterministically.
func TestRankOrderSaturated(t *testing.T) {
	got := rankOrder(make([]int, 3), []float64{1, 1, 1}, []float64{1.0, 0.3, 1.0})
	if want := []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("rankOrder saturated = %v, want %v", got, want)
	}
}

// rankOrderRef is rankOrder as it stood when it sorted through
// sort.SliceStable at every size.
func rankOrderRef(weights, sels []float64) []int {
	order := make([]int, len(sels))
	for i := range order {
		order[i] = i
	}
	rank := func(i int) float64 {
		drop := 1 - sels[i]
		if drop < 1e-9 {
			drop = 1e-9
		}
		w := 1.0
		if i < len(weights) {
			w = weights[i]
		}
		return w / drop
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		return sels[a] < sels[b]
	})
	return order
}

// TestRankOrderMatchesSliceStable: the hand-written insertion sort (up to 20
// operators) and the sort.SliceStable branch above it yield the reference's
// permutation, ties, saturated and NaN estimates included.
func TestRankOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(26)
		weights, sels := make([]float64, n), make([]float64, n)
		for i := range sels {
			weights[i] = float64(1 + rng.Intn(3))
			sels[i] = float64(rng.Intn(6)) / 5 // many ties, 0 and 1 included
			if rng.Intn(40) == 0 {
				sels[i] = math.NaN()
			}
		}
		if got, want := rankOrder(make([]int, n), weights, sels), rankOrderRef(weights, sels); !reflect.DeepEqual(got, want) {
			t.Fatalf("rankOrder(%v, %v) = %v, reference %v", weights, sels, got, want)
		}
	}
}
