// Package datagen produces the value distributions the paper's evaluation
// sweeps over: uniform and zipfian draws, sorted and windowed-Knuth-shuffled
// orderings (the "sortedness" axis of Figures 13 and 14), clustered
// redistribution within time windows, and correlated attribute pairs.
package datagen

import (
	"fmt"
	"math/rand"
)

// NewRNG returns a deterministic source for the given seed; every generator
// in this package takes an explicit *rand.Rand so experiments are replayable.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// UniformInt64 returns n draws uniform in [lo, hi] inclusive.
func UniformInt64(rng *rand.Rand, n int, lo, hi int64) []int64 {
	if hi < lo {
		panic(fmt.Sprintf("datagen: empty range [%d,%d]", lo, hi))
	}
	out := make([]int64, n)
	span := hi - lo + 1
	for i := range out {
		out[i] = lo + rng.Int63n(span)
	}
	return out
}

// UniformInt32 returns n draws uniform in [lo, hi] inclusive.
func UniformInt32(rng *rand.Rand, n int, lo, hi int32) []int32 {
	if hi < lo {
		panic(fmt.Sprintf("datagen: empty range [%d,%d]", lo, hi))
	}
	out := make([]int32, n)
	span := int64(hi) - int64(lo) + 1
	for i := range out {
		out[i] = lo + int32(rng.Int63n(span))
	}
	return out
}

// UniformFloat64 returns n draws uniform in [lo, hi).
func UniformFloat64(rng *rand.Rand, n int, lo, hi float64) []float64 {
	if hi < lo {
		panic(fmt.Sprintf("datagen: empty range [%v,%v)", lo, hi))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return out
}

// Ascending returns 0,1,...,n-1 as int64.
func Ascending(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// WindowPermutation returns a permutation of [0,n) produced by a windowed
// Knuth shuffle: position i swaps with a uniform position in
// [i, min(i+window, n)). window >= n yields a full Fisher-Yates shuffle;
// window <= 1 yields the identity. Small windows preserve coarse order —
// the paper's "shuffle distance" knob (Figure 14's 1T, CL, 100T, 1KT, L1,
// L2, L3, Mem axis).
func WindowPermutation(rng *rand.Rand, n, window int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if window <= 1 {
		return perm
	}
	for i := 0; i < n-1; i++ {
		hi := i + window
		if hi > n {
			hi = n
		}
		j := i + rng.Intn(hi-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// GroupPermutation returns a permutation that shuffles only within runs of
// equal group ids (groups must be contiguous, e.g. a month id over a
// date-sorted column). This is the paper's "clustered" data set of Figure
// 13b: rows are redistributed within their month but months stay in order.
func GroupPermutation(rng *rand.Rand, groups []int32) []int {
	n := len(groups)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	start := 0
	for start < n {
		end := start + 1
		for end < n && groups[end] == groups[start] {
			end++
		}
		// Fisher-Yates within [start, end).
		for i := end - 1; i > start; i-- {
			j := start + rng.Intn(i-start+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		start = end
	}
	return perm
}

// ApplyPermInt64 returns data reordered so out[i] = data[perm[i]].
func ApplyPermInt64(data []int64, perm []int) []int64 {
	out := make([]int64, len(data))
	for i, p := range perm {
		out[i] = data[p]
	}
	return out
}

// ApplyPermInt32 returns data reordered so out[i] = data[perm[i]].
func ApplyPermInt32(data []int32, perm []int) []int32 {
	out := make([]int32, len(data))
	for i, p := range perm {
		out[i] = data[p]
	}
	return out
}

// ApplyPermFloat64 returns data reordered so out[i] = data[perm[i]].
func ApplyPermFloat64(data []float64, perm []int) []float64 {
	out := make([]float64, len(data))
	for i, p := range perm {
		out[i] = data[p]
	}
	return out
}
