package core

import (
	"sort"

	"progopt/internal/exec"
)

// LoadWeights appends to w each operator's dependent loads per driving row: one
// for a predicate's column read; for a foreign-key join the key read, each
// via hop, the hash-bucket probe, and the pushed build-side filter column if
// present. The weights are structural — read off the compiled operators, no
// statistics — and feed rankOrder so the progressive optimizer prices a
// multi-hop probe at what it actually costs per row instead of treating
// every operator as one load.
func LoadWeights(w []float64, q *exec.Query) []float64 {
	for _, op := range q.Ops {
		loads := 1
		if j, ok := op.(*exec.FKJoin); ok {
			loads = 2 + len(j.Via) // key read, via hops, bucket probe
			if j.Filter != nil {
				loads++
			}
		}
		w = append(w, float64(loads))
	}
	return w
}

// rankOrder fills order (length len(sels)) with the positions sorted by the
// classic rank criterion ascending, and returns it: rank_i = w_i / (1 - s_i),
// an operator's per-row cost divided by the fraction of rows it removes.
// With uniform weights this is exactly AscendingOrder — the paper's
// predicate-only rule — so all-predicate plans behave identically; with join
// operators in the pipeline it keeps a cheap selective predicate ahead of an
// expensive multi-hop probe that filters only slightly harder, which plain
// selectivity ordering gets wrong.
//
// Exact rank ties break by ascending selectivity, then input position, so
// the order is deterministic for any input.
func rankOrder(order []int, weights, sels []float64) []int {
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
	less := func(a, b int) bool {
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		return sels[a] < sels[b]
	}
	if len(order) > 20 {
		sort.SliceStable(order, func(x, y int) bool { return less(order[x], order[y]) })
		return order
	}
	// Up to 20 elements sort.SliceStable is one insertion-sort block; running
	// it directly spares the reflection swapper's allocation per decision.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}
