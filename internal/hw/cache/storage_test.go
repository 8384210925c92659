package cache

import (
	"math/rand"
	"slices"
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

// TestStorageCold: Cold returns a used view to its constructed state, so a
// run after it prices and counts exactly what the same run on a new view does.
func TestStorageCold(t *testing.T) {
	build := func() *StorageSet {
		s := NewStorageSet(StorageConfig{LatencyCycles: 100, BytesPerCycle: 4, BudgetBytes: 128})
		for i := 0; i < 3; i++ {
			if err := s.AddRange(uint64(i)*0x100, 0x100, s.AddBlock(64)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	trace := []uint64{0, 0x100, 0, 0x200, 0x180, 0x40, 0x200}
	run := func(s *StorageSet) []uint64 {
		stalls := make([]uint64, len(trace))
		for i, a := range trace {
			stalls[i] = s.Touch(a)
		}
		return stalls
	}
	fresh := build()
	want := run(fresh)
	if c := fresh.Counters(); c.Evictions == 0 || c.BlockHits == 0 {
		t.Fatalf("trace neither evicts nor hits (%+v); the comparison is vacuous", c)
	}
	used := build()
	run(used)
	used.Cold()
	if used.ResidentBytes() != 0 || used.Counters() != (StorageCounters{}) {
		t.Fatalf("after Cold: %d resident bytes, counters %+v; want none and zero", used.ResidentBytes(), used.Counters())
	}
	if got := run(used); !slices.Equal(got, want) || used.Counters() != fresh.Counters() || used.ResidentBytes() != fresh.ResidentBytes() {
		t.Fatalf("run after Cold: stalls %v counters %+v, a new view's %v %+v", got, used.Counters(), want, fresh.Counters())
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
	for _, r := range [][2]uint64{{0x180, 0x100}, {0x80, 0x81}, {0x100, 0x100}, {0x0, 0x1000}, {1<<64 - 0x40, 0x80}} {
		if err := s.AddRange(r[0], r[1], b); err == nil {
			t.Fatalf("range [%#x, +%#x) accepted over [0x100, 0x200) or past the top", r[0], r[1])
		}
	}
	for _, r := range [][2]uint64{{0x200, 0x40}, {0x80, 0x80}} { // touching is not overlapping
		if err := s.AddRange(r[0], r[1], b); err != nil {
			t.Fatal(err)
		}
	}
}

// refStorage is a linear-scan model of StorageSet: windows in insertion
// order, the resident blocks as an MRU-first list, every access a search of
// both. It holds nothing StorageSet's lookup shortcuts rely on.
type refStorage struct {
	cfg      StorageConfig
	cost     []uint64
	windows  [][3]uint64 // base, end, block
	mru      []int
	resBytes uint64
	ctr      StorageCounters
	evicted  []int
}

func (r *refStorage) touch(addr uint64) uint64 {
	for _, w := range r.windows {
		if addr < w[0] || addr >= w[1] {
			continue
		}
		b := int(w[2])
		for i, m := range r.mru {
			if m == b {
				r.ctr.BlockHits++
				r.mru = append([]int{b}, append(r.mru[:i:i], r.mru[i+1:]...)...)
				return 0
			}
		}
		stall := r.cfg.LatencyCycles + (r.cost[b]+r.cfg.BytesPerCycle-1)/r.cfg.BytesPerCycle
		r.ctr.BlockFetches++
		r.ctr.BytesFetched += r.cost[b]
		r.ctr.StallCycles += stall
		r.mru = append([]int{b}, r.mru...)
		r.resBytes += r.cost[b]
		for r.cfg.BudgetBytes > 0 && r.resBytes > r.cfg.BudgetBytes && r.mru[len(r.mru)-1] != b {
			last := r.mru[len(r.mru)-1]
			r.mru = r.mru[:len(r.mru)-1]
			r.resBytes -= r.cost[last]
			r.ctr.Evictions++
			r.evicted = append(r.evicted, last)
		}
		return stall
	}
	return 0
}

// TestStorageTouchMatchesLinearScan drives StorageSet and the linear-scan
// model with addresses below, between, inside and above windows added out of
// address order and between accesses, several windows per block, under a
// budget that evicts: every
// stall, the counters, the resident bytes and the eviction order must agree.
func TestStorageTouchMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := StorageConfig{LatencyCycles: 300, BytesPerCycle: uint64(rng.Intn(16) + 1), BudgetBytes: uint64(rng.Intn(4)) * 3000}
		s := NewStorageSet(cfg)
		ref := &refStorage{cfg: cfg}
		var evicted []int
		s.SetObserver(func(kind StorageEventKind, block int, _, _ uint64) {
			if kind == StorageEvict {
				evicted = append(evicted, block)
			}
		})
		nBlocks := rng.Intn(12) + 1
		for b := 0; b < nBlocks; b++ {
			ref.cost = append(ref.cost, uint64(rng.Intn(2000)+1))
			s.AddBlock(ref.cost[b])
		}
		// Windows on a 0x1000 grid with gaps, registered in shuffled order.
		const lo = 0x10000
		var bases []uint64
		for i := 0; i < 3*nBlocks; i++ {
			if rng.Intn(3) > 0 {
				bases = append(bases, lo+uint64(i)*0x1000)
			}
		}
		rng.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })
		top := lo + uint64(3*nBlocks)*0x1000
		for i := 0; i < 4000; i++ {
			// Windows arrive among the first accesses, so an insert lands
			// between a memoized window and its successors.
			if i%50 == 0 && len(bases) > 0 {
				base := bases[0]
				bases = bases[1:]
				span, b := uint64(rng.Intn(0x1000)+1), rng.Intn(nBlocks)
				if err := s.AddRange(base, span, b); err != nil {
					t.Fatal(err)
				}
				ref.windows = append(ref.windows, [3]uint64{base, base + span, uint64(b)})
			}
			var addr uint64
			switch rng.Intn(5) {
			case 0: // below every window
				addr = uint64(rng.Intn(lo))
			case 1: // at or above the last window's end
				addr = top + uint64(rng.Intn(0x4000)) - 0x800
			case 2: // a window's edges
				if len(ref.windows) > 0 {
					w := ref.windows[rng.Intn(len(ref.windows))]
					addr = []uint64{w[0] - 1, w[0], w[1] - 1, w[1]}[rng.Intn(4)]
				}
			default: // anywhere in the windowed span: inside or in a gap
				addr = lo + uint64(rng.Intn(int(top-lo)))
			}
			got, want := s.Touch(addr), ref.touch(addr)
			if got != want {
				t.Fatalf("seed %d, access %d at %#x: stall %d, linear scan %d", seed, i, addr, got, want)
			}
		}
		if s.Counters() != ref.ctr || s.ResidentBytes() != ref.resBytes {
			t.Fatalf("seed %d: counters %+v resident %d, linear scan %+v resident %d",
				seed, s.Counters(), s.ResidentBytes(), ref.ctr, ref.resBytes)
		}
		if !slices.Equal(evicted, ref.evicted) {
			t.Fatalf("seed %d: evictions %v, linear scan %v", seed, evicted, ref.evicted)
		}
	}
}

// TestStorageObserverInvariant is the tier's bit-identity contract at the
// hierarchy level: the same access trace through two identically configured
// hierarchies — one with a storage tier attached — produces identical cache
// counters; only the tier's own counters record stalls.
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
	if s.Counters().StallCycles == 0 {
		t.Fatal("attached hierarchy never charged a storage stall")
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
