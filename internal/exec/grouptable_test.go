package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"progopt/internal/columnar"
)

// Property test for the open-addressing group table: accumulating a random
// (key, value, core) stream through the flat table must produce exactly the
// rows the retired map-based reference (applyRef/groupsOfMap) produces — same
// keys in ascending order, bit-identical sums, same counts — and exactly the
// reference's key → cores presence sets, across random key domains, heavy
// collision mixes, under-estimated sizing (forcing growth mid-stream, which
// must carry presence along), extreme int64 keys, and core counts on both
// sides of a presence-word boundary. The table is reused across trials, as
// an executor reuses it across runs.
func TestGroupTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	domains := [][]int64{
		{0, 1, 2, 3},                             // dense tiny
		{math.MinInt64, math.MaxInt64, -1, 0, 1}, // extreme bounds
		{1 << 62, 1<<62 + 16, 1<<62 + 32},        // same low bits: forced probes
		nil,                                      // random wide domain, filled below
	}
	coreCounts := []int{1, 2, 7, 64, 65, 130}
	var acc groupTable
	grew := 0
	for trial := 0; trial < 120; trial++ {
		domain := domains[trial%len(domains)]
		if domain == nil {
			domain = make([]int64, rng.Intn(400)+1)
			for i := range domain {
				domain[i] = rng.Int63() - rng.Int63()
			}
		}
		cores := coreCounts[trial%len(coreCounts)]
		nRows := rng.Intn(3000) + 1
		keys := make([]int64, nRows)
		vals := make([]float64, nRows)
		for i := range keys {
			keys[i] = domain[rng.Intn(len(domain))]
			vals[i] = rng.NormFloat64() * 1e6
		}
		g := &GroupBy{
			GroupCol: columnar.NewInt64("k", keys),
			ValueCol: columnar.NewFloat64("v", vals),
			// Deliberately under-estimate sizing on most trials so the table
			// grows mid-stream.
			expected: rng.Intn(len(domain)) + 1,
		}
		acc.reset(g.expected, cores)
		buckets := len(acc.slots)
		ref := make(map[int64]*Group)
		present := make(map[int64]map[int]bool)
		for row := 0; row < nRows; row++ {
			core := rng.Intn(cores)
			g.fold(&acc, []int32{int32(row)}, core)
			g.applyRef(ref, row)
			if present[keys[row]] == nil {
				present[keys[row]] = make(map[int]bool)
			}
			present[keys[row]][core] = true
		}
		if len(acc.slots) > buckets {
			grew++
		}
		refs := acc.sorted()
		got, want := acc.groups(refs), groupsOfMap(ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (domain %d, rows %d): table %v\nreference %v",
				trial, len(domain), nRows, got, want)
		}
		for _, r := range refs {
			for core := 0; core < cores; core++ {
				if acc.has(r, core) != present[r.key][core] {
					t.Fatalf("trial %d (%d cores): key %d on core %d: table says %v, reference %v",
						trial, cores, r.key, core, acc.has(r, core), present[r.key][core])
				}
			}
		}
	}
	if grew < 5 {
		t.Errorf("only %d of 120 trials grew the table mid-stream", grew)
	}
}
