package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"progopt/internal/columnar"
)

// groupTableTrial accumulates one random (key, value, core) stream through
// acc — reset for the trial, as an executor resets it per run — and through
// the retired map-based reference (applyRef/groupsOfMap) plus a key → cores
// set, and requires the same keys in ascending order, bit-identical sums,
// the same counts and exactly the reference's presence sets. It reports
// whether the table grew mid-stream.
func groupTableTrial(t testing.TB, acc *groupTable, rng *rand.Rand, domain []int64, cores, expected, nRows int) (grew bool) {
	t.Helper()
	keys := make([]int64, nRows)
	vals := make([]float64, nRows)
	for i := range keys {
		keys[i] = domain[rng.Intn(len(domain))]
		vals[i] = rng.NormFloat64() * 1e6
	}
	g := &GroupBy{
		GroupCol: columnar.NewInt64("k", keys),
		ValueCol: columnar.NewFloat64("v", vals),
		expected: expected,
	}
	acc.reset(g.expected, cores)
	buckets := len(acc.slots)
	ref := make(map[int64]*Group)
	present := make(map[int64]map[int]bool)
	for row := 0; row < nRows; row++ {
		core := rng.Intn(cores)
		g.fold(acc, []int32{int32(row)}, core)
		g.applyRef(ref, row)
		if present[keys[row]] == nil {
			present[keys[row]] = make(map[int]bool)
		}
		present[keys[row]][core] = true
	}
	refs := acc.sorted()
	got, want := acc.groups(refs), groupsOfMap(ref)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("domain %d, rows %d, %d cores: table %v\nreference %v", len(domain), nRows, cores, got, want)
	}
	for _, r := range refs {
		for core := 0; core < cores; core++ {
			if acc.has(r, core) != present[r.key][core] {
				t.Fatalf("%d cores: key %d on core %d: table says %v, reference %v",
					cores, r.key, core, acc.has(r, core), present[r.key][core])
			}
		}
	}
	return len(acc.slots) > buckets
}

// Property test for the open-addressing group table against the map-based
// reference (see groupTableTrial) across random key domains, heavy collision
// mixes, under-estimated sizing (forcing growth mid-stream, which must carry
// presence along), extreme int64 keys, and core counts on both sides of a
// presence-word boundary. The table is reused across trials, as an executor
// reuses it across runs.
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
		// Deliberately under-estimate sizing on most trials so the table
		// grows mid-stream.
		expected := rng.Intn(len(domain)) + 1
		if groupTableTrial(t, &acc, rng, domain, coreCounts[trial%len(coreCounts)], expected, rng.Intn(3000)+1) {
			grew++
		}
	}
	if grew < 5 {
		t.Errorf("only %d of 120 trials grew the table mid-stream", grew)
	}
}

// FuzzGroupTableMatchesMapReference lets the fuzzer choose the stream's seed,
// the domain width and spread, the core count, the sizing estimate and the
// length, two trials per input on one table so that a reset after a larger or
// differently strided run is covered too.
func FuzzGroupTableMatchesMapReference(f *testing.F) {
	f.Add(int64(1), uint16(4), uint8(0), uint8(1), uint16(1), uint16(100))
	f.Add(int64(2), uint16(400), uint8(63), uint8(65), uint16(3), uint16(3000))
	f.Add(int64(3), uint16(33), uint8(4), uint8(200), uint16(500), uint16(900))
	f.Fuzz(func(t *testing.T, seed int64, width uint16, shift, cores uint8, expected, nRows uint16) {
		rng := rand.New(rand.NewSource(seed))
		domain := make([]int64, int(width)%2048+1)
		for i := range domain {
			// Small shifts give dense runs, large ones keys that share their
			// low bits.
			domain[i] = (rng.Int63n(int64(len(domain))*2) - int64(len(domain))) << (shift % 64)
		}
		var acc groupTable
		groupTableTrial(t, &acc, rng, domain, int(cores)+1, int(expected)+1, int(nRows)%4096+1)
		groupTableTrial(t, &acc, rng, domain[:len(domain)/2+1], int(cores)/2+1, int(expected)/4+1, int(nRows)%512+1)
	})
}
