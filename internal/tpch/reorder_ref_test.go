package tpch

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
)

// refLineitemPerm is lineitemPerm's two shipdate orderings as they were
// before the counting sort, kept as the oracle: both start from
// sort.SliceStable.
func (d *Dataset) refLineitemPerm(o Ordering, seed int64) []int {
	rng := datagen.NewRNG(seed)
	ship := d.Lineitem.Column("l_shipdate").I32()
	n := len(ship)
	var perm []int
	switch o {
	case OrderingShipdateSorted:
		perm = identityPerm(n)
		sort.SliceStable(perm, func(a, b int) bool { return ship[perm[a]] < ship[perm[b]] })
	case OrderingClusteredMonth:
		// Sort by shipdate first, then shuffle within months.
		sorted := identityPerm(n)
		sort.SliceStable(sorted, func(a, b int) bool { return ship[sorted[a]] < ship[sorted[b]] })
		months := make([]int32, n)
		for i, p := range sorted {
			months[i] = MonthID(ship[p])
		}
		within := datagen.GroupPermutation(rng, months)
		perm = make([]int, n)
		for i := range perm {
			perm[i] = sorted[within[i]]
		}
	}
	return perm
}

// TestCountingPermMatchesSliceStable: the sorted and clustered orderings
// give the permutation of the sort.SliceStable code they replaced, on
// generated data sets of several sizes and seeds, on one row, and on
// shipdates that are all equal.
func TestCountingPermMatchesSliceStable(t *testing.T) {
	var sets []*Dataset
	for _, rows := range []int{1, 2, 7, 1000, 30_000} {
		for _, seed := range []int64{1, 7, 99} {
			sets = append(sets, MustGenerate(Config{Lineitems: rows, Seed: seed}))
		}
	}
	for _, rows := range []int{1, 500} {
		same := make([]int32, rows)
		for i := range same {
			same[i] = 9000
		}
		li := columnar.NewTable("lineitem")
		li.MustAddColumn(columnar.NewDate("l_shipdate", same))
		sets = append(sets, &Dataset{Lineitem: li})
	}
	for i, d := range sets {
		seed := int64(i) + 1
		for _, o := range []Ordering{OrderingShipdateSorted, OrderingClusteredMonth} {
			if got, want := d.lineitemPerm(o, seed), d.refLineitemPerm(o, seed); !slices.Equal(got, want) {
				t.Errorf("data set %d (%d rows), %v: counting permutation differs from sort.SliceStable's", i, len(want), o)
			}
		}
	}
}

// TestStableOrderWideKeys: keys spanning more values than there are rows
// take the two 16-bit passes; negative keys and the int32 extremes come out
// in sort.SliceStable's order on both paths.
func TestStableOrderWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func(n int, f func() int32) []int32 {
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = f()
		}
		return keys
	}
	for i, keys := range [][]int32{
		nil,
		{math.MaxInt32, math.MinInt32, 0, -1, math.MaxInt32, math.MinInt32},
		draw(5000, func() int32 { return int32(rng.Uint32()) }),
		draw(5000, func() int32 { return int32(rng.Intn(200_000)) - 100_000 }),
		draw(5000, func() int32 { return int32(rng.Intn(64)) - 32 }),
	} {
		want := identityPerm(len(keys))
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		if got := stableOrder(keys); !slices.Equal(got, want) {
			t.Errorf("case %d (%d keys): counting order differs from sort.SliceStable's", i, len(keys))
		}
	}
}
