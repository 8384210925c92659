package cache

import (
	"math/rand"
	"testing"
)

func storCfg() StorageConfig {
	return StorageConfig{LatencyCycles: 1000, BytesPerCycle: 8, BudgetBytes: 0}
}

func TestStorageFetchPricing(t *testing.T) {
	s := NewStorageSet(storCfg())
	b := s.AddBlock(100) // ceil(100/8) = 13
	if err := s.AddRange(0x1000, 0x800, b); err != nil {
		t.Fatal(err)
	}
	want := uint64(1000 + 13)
	if got := s.Touch(0x1000); got != want {
		t.Fatalf("cold touch stall = %d, want %d", got, want)
	}
	if got := s.Touch(0x1400); got != 0 {
		t.Fatalf("resident touch stall = %d, want 0", got)
	}
	if got := s.Touch(0x999999); got != 0 {
		t.Fatalf("unmapped touch stall = %d, want 0", got)
	}
	c := s.Counters()
	if c.BlockFetches != 1 || c.BlockHits != 1 || c.BytesFetched != 100 || c.StallCycles != want {
		t.Fatalf("counters = %+v", c)
	}
}

func TestStorageZeroBandwidthDefaultsToOne(t *testing.T) {
	s := NewStorageSet(StorageConfig{LatencyCycles: 5})
	b := s.AddBlock(7)
	if err := s.AddRange(0, 64, b); err != nil {
		t.Fatal(err)
	}
	if got := s.Touch(0); got != 5+7 {
		t.Fatalf("stall = %d, want 12", got)
	}
}

func TestStorageAliasRangesShareResidency(t *testing.T) {
	s := NewStorageSet(storCfg())
	b := s.AddBlock(64)
	// Decoded and packed images of one logical block.
	if err := s.AddRange(0x1000, 0x100, b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRange(0x9000, 0x40, b); err != nil {
		t.Fatal(err)
	}
	if s.Touch(0x1000) == 0 {
		t.Fatal("first touch should fetch")
	}
	if got := s.Touch(0x9000); got != 0 {
		t.Fatalf("alias window touch stall = %d, want 0 (block already resident)", got)
	}
	if c := s.Counters(); c.BlockFetches != 1 || c.BlockHits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestStorageLRUEviction(t *testing.T) {
	cfg := storCfg()
	cfg.BudgetBytes = 200 // two 100-byte blocks fit
	s := NewStorageSet(cfg)
	var blocks [3]int
	for i := range blocks {
		blocks[i] = s.AddBlock(100)
		if err := s.AddRange(uint64(i)*0x1000, 0x100, blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Touch(0x0000) // fetch 0
	s.Touch(0x1000) // fetch 1
	s.Touch(0x0000) // hit 0 → MRU order: 0, 1
	s.Touch(0x2000) // fetch 2 → evicts 1 (LRU)
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if got := s.Touch(0x0000); got != 0 {
		t.Fatal("block 0 should have survived eviction")
	}
	if got := s.Touch(0x1000); got == 0 {
		t.Fatal("block 1 should have been evicted")
	}
	if s.ResidentBytes() > cfg.BudgetBytes {
		t.Fatalf("resident bytes %d exceed budget %d", s.ResidentBytes(), cfg.BudgetBytes)
	}
}

func TestStorageBudgetNeverEvictsIncomingBlock(t *testing.T) {
	cfg := storCfg()
	cfg.BudgetBytes = 50 // smaller than any block
	s := NewStorageSet(cfg)
	a := s.AddBlock(100)
	b := s.AddBlock(100)
	if err := s.AddRange(0x0000, 0x100, a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRange(0x1000, 0x100, b); err != nil {
		t.Fatal(err)
	}
	s.Touch(0x0000)
	if got := s.Touch(0x0000); got != 0 {
		t.Fatal("oversized block must stay resident until another fetch displaces it")
	}
	s.Touch(0x1000) // evicts a, keeps b
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if got := s.Touch(0x1000); got != 0 {
		t.Fatal("incoming block must never be evicted by its own fetch")
	}
}

func TestStorageDropResidency(t *testing.T) {
	s := NewStorageSet(storCfg())
	b := s.AddBlock(64)
	if err := s.AddRange(0, 0x100, b); err != nil {
		t.Fatal(err)
	}
	first := s.Touch(0)
	s.DropResidency()
	if s.ResidentBytes() != 0 {
		t.Fatal("resident bytes after drop")
	}
	if got := s.Touch(0); got != first {
		t.Fatalf("post-drop touch stall = %d, want %d (a fresh cold fetch)", got, first)
	}
	if c := s.Counters(); c.Evictions != 0 {
		t.Fatal("DropResidency must not count as evictions")
	}
}

func TestStorageRangeValidation(t *testing.T) {
	s := NewStorageSet(storCfg())
	if err := s.AddRange(0, 64, 3); err == nil {
		t.Fatal("range over unknown block accepted")
	}
	b := s.AddBlock(64)
	if err := s.AddRange(0, 0, b); err != nil {
		t.Fatal("empty range should be a no-op, not an error")
	}
	if err := s.AddRange(0x100, 0x100, b); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRange(0x180, 0x100, b); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping ranges must panic at seal time")
		}
	}()
	s.Touch(0x100)
}

// TestStorageObserverInvariant is the tier's bit-identity contract at the
// hierarchy level: the same access trace through two identically configured
// hierarchies — one with a storage tier attached — produces identical cache
// counters; only StorageStallCycles differs.
func TestStorageObserverInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	plain, err := NewHierarchy(hcfg())
	if err != nil {
		t.Fatal(err)
	}
	stored, err := NewHierarchy(hcfg())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStorageSet(StorageConfig{LatencyCycles: 500, BytesPerCycle: 4, BudgetBytes: 1 << 14})
	const blockBytes = 1 << 12
	for i := 0; i < 16; i++ {
		b := s.AddBlock(blockBytes / 2) // "compressed" to half
		if err := s.AddRange(uint64(i)*blockBytes, blockBytes, b); err != nil {
			t.Fatal(err)
		}
	}
	stored.AttachStorage(s)

	for i := 0; i < 20000; i++ {
		var addr uint64
		switch rng.Intn(3) {
		case 0: // sequential run inside the mapped region
			addr = uint64(rng.Intn(16 * blockBytes))
		case 1: // unmapped traffic
			addr = uint64(1<<20 + rng.Intn(1<<16))
		default: // hot reuse
			addr = uint64(rng.Intn(256))
		}
		a := plain.Load(addr)
		b := stored.Load(addr)
		if a != b {
			t.Fatalf("access %d: hit level diverged: %+v vs %+v", i, a, b)
		}
	}
	if plain.Counters() != stored.Counters() {
		t.Fatalf("counters diverged:\nplain  %+v\nstored %+v", plain.Counters(), stored.Counters())
	}
	if plain.StorageStallCycles() != 0 {
		t.Fatal("unattached hierarchy reports storage stalls")
	}
	st := stored.StorageStallCycles()
	if st == 0 {
		t.Fatal("attached hierarchy never charged a storage stall")
	}
	if st != s.Counters().StallCycles {
		t.Fatalf("hierarchy stalls %d != set stalls %d", st, s.Counters().StallCycles)
	}
}

func TestStorageSequentialMemo(t *testing.T) {
	s := NewStorageSet(storCfg())
	for i := 0; i < 4; i++ {
		b := s.AddBlock(256)
		if err := s.AddRange(uint64(i)*0x1000, 0x1000, b); err != nil {
			t.Fatal(err)
		}
	}
	// A forward scan touching every 64 bytes: exactly 4 fetches, rest hits.
	for a := uint64(0); a < 4*0x1000; a += 64 {
		s.Touch(a)
	}
	c := s.Counters()
	if c.BlockFetches != 4 {
		t.Fatalf("fetches = %d, want 4", c.BlockFetches)
	}
	if c.BlockHits != 4*0x1000/64-4 {
		t.Fatalf("hits = %d, want %d", c.BlockHits, 4*0x1000/64-4)
	}
}
