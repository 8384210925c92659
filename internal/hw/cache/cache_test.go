package cache

import (
	"testing"
	"testing/quick"
)

func cfg(name string, size, line, ways, lat int) Config {
	return Config{Name: name, SizeBytes: size, LineSize: line, Ways: ways, LatencyCycles: lat}
}

func TestConfigValidate(t *testing.T) {
	good := cfg("L1", 2048, 64, 8, 4)
	if _, err := NewLevel(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		cfg("x", 0, 64, 8, 4),     // zero size
		cfg("x", 2048, 48, 8, 4),  // line not power of two
		cfg("x", 2000, 64, 8, 4),  // size not multiple of line
		cfg("x", 2048, 64, 5, 4),  // ways don't divide lines
		cfg("x", 3072, 64, 8, 4),  // set count 6, not power of two
		cfg("x", 2048, 64, 8, -1), // negative latency
	}
	for i, c := range bad {
		if _, err := NewLevel(c); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestLevelHitAfterInsert(t *testing.T) {
	l, _ := NewLevel(cfg("L1", 2048, 64, 8, 4))
	addr := uint64(0x1000)
	if l.Lookup(addr) {
		t.Fatal("empty cache reported a hit")
	}
	l.Insert(addr, false)
	if !l.Lookup(addr) {
		t.Fatal("miss immediately after insert")
	}
	// Same line, different byte offset.
	if !l.Lookup(addr + 63) {
		t.Fatal("miss within the same cache line")
	}
	if l.Lookup(addr + 64) {
		t.Fatal("hit on the next line which was never inserted")
	}
	st := l.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 accesses / 2 hits / 2 misses", st)
	}
}

func TestLevelLRUEviction(t *testing.T) {
	// 2 ways, 2 sets (256 B / 64 B line / 2 ways).
	l, _ := NewLevel(cfg("t", 256, 64, 2, 4))
	// Three lines mapping to set 0: line ids spaced by set count (2).
	a, b, c := uint64(0*128), uint64(2*128), uint64(4*128)
	l.Insert(a, false)
	l.Insert(b, false)
	l.Lookup(a) // touch a, making b the LRU way
	l.Insert(c, false)
	if !l.Contains(a) {
		t.Error("recently used line a was evicted")
	}
	if l.Contains(b) {
		t.Error("LRU line b survived eviction")
	}
	if !l.Contains(c) {
		t.Error("newly inserted line c missing")
	}
}

func TestLevelFlush(t *testing.T) {
	l, _ := NewLevel(cfg("t", 2048, 64, 8, 4))
	l.Insert(0x40, false)
	l.Flush()
	if l.Contains(0x40) {
		t.Error("line survived Flush")
	}
	if l.Stats().Accesses == 0 {
		// Flush must keep counters: force one access first in a fresh level.
		l2, _ := NewLevel(cfg("t", 2048, 64, 8, 4))
		l2.Lookup(0x40)
		l2.Flush()
		if l2.Stats().Accesses != 1 {
			t.Error("Flush cleared counters")
		}
	}
}

func TestLevelCapacityWorkingSet(t *testing.T) {
	// A working set exactly the size of the cache must fully hit on the
	// second pass (LRU, access order matches insert order per set).
	l, _ := NewLevel(cfg("t", 4096, 64, 4, 4))
	lines := 4096 / 64
	for i := 0; i < lines; i++ {
		addr := uint64(i * 64)
		if !l.Lookup(addr) {
			l.Insert(addr, false)
		}
	}
	misses := 0
	for i := 0; i < lines; i++ {
		if !l.Lookup(uint64(i * 64)) {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("second pass over cache-sized working set missed %d times", misses)
	}
	// A working set of 2x capacity with LRU and a sequential scan thrashes.
	l.Flush()
	hitsBefore := l.Stats().Hits
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2*lines; i++ {
			addr := uint64(i * 64)
			if !l.Lookup(addr) {
				l.Insert(addr, false)
			}
		}
	}
	if hits := l.Stats().Hits - hitsBefore; hits != 0 {
		t.Errorf("sequential scan of 2x working set under LRU produced %d hits, want 0", hits)
	}
}

func hcfg() HierarchyConfig {
	return HierarchyConfig{
		L1:               cfg("L1", 2048, 64, 8, 4),
		L2:               cfg("L2", 16384, 64, 8, 12),
		L3:               cfg("L3", 262144, 64, 16, 36),
		MemLatencyCycles: 180,
	}
}

func TestHierarchyValidate(t *testing.T) {
	c := hcfg()
	c.L2.LineSize = 128
	c.L2.SizeBytes = 16384
	if _, err := NewHierarchy(c); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	c = hcfg()
	c.L1.SizeBytes = 1 << 20
	c.L1.Ways = 16
	if _, err := NewHierarchy(c); err == nil {
		t.Error("L1 larger than L2 accepted")
	}
	c = hcfg()
	c.MemLatencyCycles = 0
	if _, err := NewHierarchy(c); err == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h, err := NewHierarchy(hcfg())
	if err != nil {
		t.Fatal(err)
	}
	r := h.Load(0x100000)
	if r.Level != HitMem {
		t.Fatalf("cold load hit %v, want Mem", r.Level)
	}
	if r.LatencyCycles != 180 {
		t.Fatalf("cold load latency %d, want 180", r.LatencyCycles)
	}
	if r := h.Load(0x100000); r.Level != HitL1 {
		t.Fatalf("second load hit %v, want L1 (inclusive fill)", r.Level)
	}
}

func TestHierarchyLevelLatencies(t *testing.T) {
	h, _ := NewHierarchy(hcfg())
	addr := uint64(1 << 20)
	h.Load(addr) // mem
	// Evict from L1 by filling its sets with conflicting lines but staying
	// inside L2: L1 has 2048/64=32 lines, 8 ways, 4 sets. Stride by
	// 4*64=256 bytes to hammer one set.
	set := addr % 256
	for i := 1; i <= 8; i++ {
		h.Load(set + uint64(i)*256 + (1 << 21))
	}
	r := h.Load(addr)
	if r.Level != HitL2 {
		t.Fatalf("expected L2 hit after L1-only eviction, got %v", r.Level)
	}
	if r.LatencyCycles != 12 {
		t.Fatalf("L2 latency %d, want 12", r.LatencyCycles)
	}
}

func TestHierarchySequentialScanPrefetch(t *testing.T) {
	// A long sequential scan must mostly hit in L3 (streamer runs ahead)
	// after the stream is established, and L3 total accesses must be close to
	// the number of distinct lines touched.
	h, _ := NewHierarchy(hcfg())
	const lines = 4096
	memHits := 0
	for i := 0; i < lines; i++ {
		if r := h.Load(uint64(i * 64)); r.Level == HitMem {
			memHits++
		}
	}
	if memHits > lines/2 {
		t.Errorf("sequential scan: %d/%d loads went to memory; streamer ineffective", memHits, lines)
	}
	c := h.Counters()
	total := c.L3TotalAccesses()
	if total < lines || total > uint64(lines)*3 {
		t.Errorf("L3 total accesses %d for %d-line scan, want within [n, 3n]", total, lines)
	}
}

// TestHierarchyMonotonicCounters: accesses >= hits+misses equality and all
// counters are non-decreasing over arbitrary address streams.
func TestHierarchyMonotonicCounters(t *testing.T) {
	f := func(addrs []uint16) bool {
		h, _ := NewHierarchy(hcfg())
		var prev Counters
		for _, a := range addrs {
			h.Load(uint64(a) * 64)
			c := h.Counters()
			for _, pair := range [][2]Stats{{c.L1, prev.L1}, {c.L2, prev.L2}, {c.L3, prev.L3}} {
				cur, pv := pair[0], pair[1]
				if cur.Accesses < pv.Accesses || cur.Hits < pv.Hits || cur.Misses < pv.Misses {
					return false
				}
				if cur.Hits+cur.Misses != cur.Accesses {
					return false
				}
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSectorSlice: per-core recency arrays fill whole 128-byte sectors
// whatever their length, so two cores' arrays never share a cache line.
func TestSectorSlice(t *testing.T) {
	for _, n := range []int{1, 4, 32, 64, 65, 1000} {
		if s := sectorSlice[uint16](n); len(s) != n || cap(s)*2%128 != 0 {
			t.Errorf("uint16 n=%d: len %d cap %d", n, len(s), cap(s))
		}
		if s := sectorSlice[uint64](n); len(s) != n || cap(s)*8%128 != 0 {
			t.Errorf("uint64 n=%d: len %d cap %d", n, len(s), cap(s))
		}
	}
}
