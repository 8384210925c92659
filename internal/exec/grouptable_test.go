package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/tpch"
)

// groupTableTrial accumulates one random (key, value, core) stream through
// acc — reset for the trial, as an executor resets it per run — and through
// the retired map-based reference (applyRef/groupsOfMap) plus a key → cores
// set, and requires the same keys in ascending order, bit-identical sums,
// the same counts and exactly the reference's presence sets. expected > 0
// sizes the table as a wide domain of that many groups; expected == 0 sizes
// it by ScanKeyDomain over the stream's keys, as a compiled plan is. It
// reports the domain and whether the table grew mid-stream.
func groupTableTrial(t testing.TB, acc *groupTable, rng *rand.Rand, domain []int64, cores, expected, nRows int) (dom KeyDomain, grew bool) {
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
		domain:   KeyDomain{Groups: expected},
	}
	if expected == 0 {
		var err error
		if g.domain, err = ScanKeyDomain(g.GroupCol); err != nil {
			t.Fatal(err)
		}
	}
	acc.reset(g.domain, cores)
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
	return g.domain, len(acc.slots) > buckets
}

// slotsInKeyOrder reports whether acc's occupied slots, read in slot order,
// already ascend by key — the case in which sorted is one linear pass.
func slotsInKeyOrder(acc *groupTable) bool {
	first, prev := true, int64(0)
	for at := 0; at < len(acc.slots); at += acc.stride {
		if acc.slots[at+slotCount] == 0 {
			continue
		}
		key := int64(acc.slots[at+slotKey])
		if !first && key <= prev {
			return false
		}
		first, prev = false, key
	}
	return true
}

// Property test for the group table against the map-based reference (see
// groupTableTrial) across random key domains, heavy collision mixes,
// under-estimated sizing (forcing growth mid-stream, which must carry presence
// along), extreme int64 keys, and core counts on both sides of a
// presence-word boundary. Dense domains — negative, large, or ending at
// MaxInt64 — are sized by ScanKeyDomain and must neither grow nor leave their
// slots out of key order; wide patterned domains (multiples of 2^k) hash.
// The table is reused across trials, as an executor reuses it across runs.
func TestGroupTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	span := func(lo int64, n int) []int64 {
		d := make([]int64, n)
		for i := range d {
			d[i] = lo + int64(i)
		}
		return d
	}
	multiples := func(shift uint, n int) []int64 {
		d := make([]int64, n)
		for i := range d {
			d[i] = int64(i-n/2) << shift
		}
		return d
	}
	domains := []struct {
		keys  []int64 // nil: a random wide domain, drawn per trial
		scan  bool    // sized by ScanKeyDomain, not by an estimate
		dense bool    // what the scan must find
	}{
		{keys: []int64{0, 1, 2, 3}, scan: true, dense: true},
		{keys: span(-6, 12), scan: true, dense: true}, // 12 keys fill 16 buckets to ¾
		{keys: span(-700, 500), scan: true, dense: true},
		{keys: span(1<<62, 300), scan: true, dense: true},
		{keys: span(math.MaxInt64-63, 64), scan: true, dense: true},
		{keys: span(math.MinInt64, 40), scan: true, dense: true},
		{keys: []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}, scan: true}, // the width overflows
		{keys: []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}},             // extreme bounds
		{keys: []int64{1 << 62, 1<<62 + 16, 1<<62 + 32}},                    // same low bits: forced probes
		{keys: multiples(4, 300)},
		{keys: multiples(17, 200)},
		{keys: multiples(40, 100)},
		{},
	}
	coreCounts := []int{1, 2, 7, 64, 65, 130}
	var acc groupTable
	grew := 0
	for trial := 0; trial < 220; trial++ {
		d := domains[trial%len(domains)]
		keys := d.keys
		if keys == nil {
			keys = make([]int64, rng.Intn(400)+1)
			for i := range keys {
				keys[i] = rng.Int63() - rng.Int63()
			}
		}
		cores := coreCounts[trial%len(coreCounts)]
		if d.scan {
			// Enough rows to draw every key, so the scan proves the domain.
			nRows := 4*len(keys) + rng.Intn(2000)
			dom, g := groupTableTrial(t, &acc, rng, keys, cores, 0, nRows)
			switch {
			case dom.Dense != d.dense:
				t.Fatalf("domain from %d, %d keys over %d rows: scanned %+v, want dense %v", keys[0], len(keys), nRows, dom, d.dense)
			case !dom.Dense:
			case g:
				t.Fatalf("dense domain %+v grew the table", dom)
			case !slotsInKeyOrder(&acc):
				t.Fatalf("dense domain %+v left its slots out of key order", dom)
			}
			continue
		}
		// Deliberately under-estimate sizing on most trials so the table
		// grows mid-stream.
		expected := rng.Intn(len(keys)) + 1
		if _, g := groupTableTrial(t, &acc, rng, keys, cores, expected, rng.Intn(3000)+1); g {
			grew++
		}
	}
	if grew < 5 {
		t.Errorf("only %d of the wide trials grew the table mid-stream", grew)
	}
}

// FuzzGroupTableMatchesMapReference lets the fuzzer choose the stream's seed,
// the domain's width, spread and offset, the core count, the sizing estimate
// and the length, two trials per input on one table so that a reset after a
// larger or differently strided run is covered too. An estimate of 0 sizes
// the first trial by ScanKeyDomain, dense whenever the rows cover the width.
func FuzzGroupTableMatchesMapReference(f *testing.F) {
	f.Add(int64(1), uint16(4), uint8(0), int64(0), uint8(1), uint16(1), uint16(100))
	f.Add(int64(2), uint16(400), uint8(63), int64(0), uint8(65), uint16(3), uint16(3000))
	f.Add(int64(3), uint16(33), uint8(4), int64(0), uint8(200), uint16(500), uint16(900))
	f.Add(int64(4), uint16(300), uint8(0), int64(-1<<40), uint8(3), uint16(0), uint16(2000))
	f.Add(int64(5), uint16(50), uint8(0), int64(math.MaxInt64-200), uint8(64), uint16(0), uint16(1000))
	f.Add(int64(6), uint16(90), uint8(0), int64(math.MinInt64+100), uint8(2), uint16(0), uint16(700))
	f.Add(int64(7), uint16(200), uint8(12), int64(0), uint8(8), uint16(0), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, width uint16, shift uint8, offset int64, cores uint8, expected, nRows uint16) {
		rng := rand.New(rand.NewSource(seed))
		domain := make([]int64, int(width)%2048+1)
		for i := range domain {
			// Small shifts give dense runs, large ones keys that share their
			// low bits; the offset moves the run anywhere in int64 (wrapping).
			domain[i] = (rng.Int63n(int64(len(domain))*2)-int64(len(domain)))<<(shift%64) + offset
		}
		var acc groupTable
		est := int(expected)
		if est%8 != 0 {
			est++ // mostly an estimate; every eighth input scans the domain
		} else {
			est = 0
		}
		dom, grew := groupTableTrial(t, &acc, rng, domain, int(cores)+1, est, int(nRows)%4096+1)
		if dom.Dense && (grew || !slotsInKeyOrder(&acc)) {
			t.Fatalf("dense domain %+v: grew %v, slots in key order %v", dom, grew, slotsInKeyOrder(&acc))
		}
		groupTableTrial(t, &acc, rng, domain[:len(domain)/2+1], int(cores)/2+1, int(expected)/4+1, int(nRows)%512+1)
	})
}

// regionAlloc hands out consecutive simulated regions and remembers the last.
type regionAlloc struct {
	next, base, size uint64
}

func (a *regionAlloc) Alloc(size int) (uint64, error) {
	a.base, a.size = a.next, uint64(size)
	a.next += a.size
	return a.base, nil
}

// TestGroupSlotLayout pins the simulated table of each kind of key domain. A
// dense one (ScanKeyDomain over a generated column) is a direct-indexed array
// of exactly Groups slots: key Min+i lives at base + 24·i, and every key of
// the column inside the region. A wide one — scanned too wide, or a
// hand-built estimate — is the multiplicative hash over the next power of two
// ≥ 2·Groups slots, computed here from the formula.
func TestGroupSlotLayout(t *testing.T) {
	d, err := tpch.Generate(tpch.Config{Lineitems: 20000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	li := d.Lineitem
	alloc := &regionAlloc{next: 1 << 20}
	for _, key := range []string{"l_partkey", "l_quantity"} {
		col := li.Column(key)
		dom, err := ScanKeyDomain(col)
		if err != nil || !dom.Dense {
			t.Fatalf("%s: domain %+v, %v; want dense", key, dom, err)
		}
		g, err := NewGroupBy(alloc, col, li.Column("l_extendedprice"), dom)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(dom.Groups) * groupSlotBytes; alloc.size != want {
			t.Fatalf("%s: reserved %d bytes for %d keys, want %d", key, alloc.size, dom.Groups, want)
		}
		for i := range dom.Groups {
			if got, want := g.slotAddr(dom.Min+int64(i)), alloc.base+groupSlotBytes*uint64(i); got != want {
				t.Fatalf("%s: key Min+%d at %#x, want %#x", key, i, got, want)
			}
		}
		for row := range col.Len() {
			if a := g.slotAddr(col.Int64At(row)); a < alloc.base || a+groupSlotBytes > alloc.base+alloc.size {
				t.Fatalf("%s: key %d at %#x, outside [%#x, %#x)", key, col.Int64At(row), a, alloc.base, alloc.base+alloc.size)
			}
		}
	}

	spread := make([]int64, 1000)
	for i := range spread {
		spread[i] = int64(i)*1_000_003 - 1<<40
	}
	wideCol := columnar.NewInt64("k", spread)
	scanned, err := ScanKeyDomain(wideCol)
	if err != nil || scanned.Dense {
		t.Fatalf("spread keys: domain %+v, %v; want wide", scanned, err)
	}
	qty := li.Column("l_quantity")
	for _, c := range []struct {
		col *columnar.Column
		dom KeyDomain
	}{
		{wideCol, scanned},
		{qty, KeyDomain{Groups: 50}},
		{qty, KeyDomain{Groups: 64}},
	} {
		g, err := NewGroupBy(alloc, c.col, li.Column("l_extendedprice"), c.dom)
		if err != nil {
			t.Fatal(err)
		}
		buckets := uint64(1)
		for buckets < 2*uint64(c.dom.Groups) {
			buckets <<= 1
		}
		if want := buckets * groupSlotBytes; alloc.size != want {
			t.Fatalf("%+v: reserved %d bytes, want %d", c.dom, alloc.size, want)
		}
		for row := range c.col.Len() {
			key := c.col.Int64At(row)
			if got, want := g.slotAddr(key), alloc.base+(uint64(key)*2654435761&(buckets-1))*groupSlotBytes; got != want {
				t.Fatalf("%+v: key %d at %#x, want %#x", c.dom, key, got, want)
			}
		}
	}
}
