package cache

import (
	"fmt"
	"slices"
	"sort"
)

// StorageSet models one core's view of a persistent storage tier below DRAM.
// Address windows of the simulated address space (the decoded image of a
// stored column, and optionally its packed image) are registered against
// logical blocks — the unit of transfer. Whenever a demand or prefetch
// access misses all the way to memory, the hierarchy consults the set: if
// the line belongs to a block that is not resident in the DRAM budget, the
// access additionally pays a block fetch (seek latency plus the block's
// encoded bytes over the tier bandwidth) and the block becomes resident,
// evicting least-recently-used blocks past the budget.
//
// The tier is an observer: it never changes which cache level satisfies an
// access, which lines are installed, or any PMU-visible counter — it only
// adds whole stall cycles. That is the bit-identity contract: a run over
// stored data retires the identical instruction and event stream as the
// in-RAM run and differs in cycles by exactly the accumulated storage
// stalls.
type StorageSet struct {
	cfg StorageConfig

	// ranges map address windows to logical blocks, kept sorted by base;
	// [lo, hi) spans them all, and an address outside it needs no search.
	ranges []storRange
	lo, hi uint64
	// lastRange memoizes the previously matched range (scans touch blocks
	// in long sequential runs); Touch checks it against the address, so an
	// insert that shifts the ranges needs no reset.
	lastRange int

	// Per logical block: transfer cost and residency/LRU state. The LRU is
	// an intrusive doubly-linked list over resident blocks (head = MRU).
	costBytes  []uint64
	resident   []bool
	prev, next []int32
	head, tail int32

	residentBytes uint64
	ctr           StorageCounters

	// obs, when non-nil, is notified of fetches and evictions (see
	// StorageObserver). Purely observational: set after counter updates.
	obs StorageObserver
}

// StorageConfig prices the tier.
type StorageConfig struct {
	// LatencyCycles is the fixed cost of one block fetch (the seek).
	LatencyCycles uint64
	// BytesPerCycle is the transfer bandwidth (minimum 1).
	BytesPerCycle uint64
	// BudgetBytes bounds the resident set, in encoded bytes; 0 = unbounded.
	BudgetBytes uint64
}

// StorageEventKind discriminates the tier events an observer can receive.
type StorageEventKind uint8

// Storage event kinds.
const (
	// StorageFetch is a block transfer from the tier (carries bytes + stall).
	StorageFetch StorageEventKind = iota
	// StorageEvict is a block dropped to fit the budget.
	StorageEvict
)

// StorageObserver receives tier events as they are priced: the block id, the
// encoded bytes moved (fetches only), and the stall cycles charged. Observers
// must be pure with respect to the simulation — the set calls them after all
// counter updates, and they see exactly the deterministic per-core event
// order. Per-access hits are not reported (residency is visible through
// Counters); fetch/evict traffic is bounded by the block count per pass.
type StorageObserver func(kind StorageEventKind, block int, bytes, stall uint64)

// SetObserver installs (or, with nil, removes) the tier event observer.
func (s *StorageSet) SetObserver(obs StorageObserver) { s.obs = obs }

// StorageCounters are the tier's monotonic statistics.
type StorageCounters struct {
	// BlockFetches counts block transfers from the tier.
	BlockFetches uint64
	// BlockHits counts accesses to already-resident blocks.
	BlockHits uint64
	// BytesFetched sums the encoded bytes of every fetch.
	BytesFetched uint64
	// Evictions counts blocks dropped to fit the budget.
	Evictions uint64
	// StallCycles sums the stall cycles charged for fetches.
	StallCycles uint64
}

type storRange struct {
	base, end uint64
	block     int32
}

// NewStorageSet builds an empty tier view.
func NewStorageSet(cfg StorageConfig) *StorageSet {
	if cfg.BytesPerCycle == 0 {
		cfg.BytesPerCycle = 1
	}
	return &StorageSet{cfg: cfg, head: -1, tail: -1, lastRange: -1}
}

// AddBlock registers a logical block of the given encoded transfer size and
// returns its id.
func (s *StorageSet) AddBlock(costBytes uint64) int {
	s.costBytes = append(s.costBytes, costBytes)
	s.resident = append(s.resident, false)
	s.prev = append(s.prev, -1)
	s.next = append(s.next, -1)
	return len(s.costBytes) - 1
}

// AddRange maps the address window [base, base+span) to the given block.
// Several windows may share a block (a column block's decoded and packed
// images are one residency unit); a window that overlaps one already added,
// or wraps past the top of the address space, is rejected.
func (s *StorageSet) AddRange(base, span uint64, block int) error {
	if block < 0 || block >= len(s.costBytes) {
		return fmt.Errorf("cache: storage range names unknown block %d", block)
	}
	if span == 0 {
		return nil
	}
	end := base + span
	if end < base {
		return fmt.Errorf("cache: storage range at %#x wraps the address space", base)
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].base >= base })
	if i < len(s.ranges) && s.ranges[i].base < end || i > 0 && s.ranges[i-1].end > base {
		return fmt.Errorf("cache: storage range [%#x, %#x) overlaps a registered one", base, end)
	}
	s.ranges = slices.Insert(s.ranges, i, storRange{base: base, end: end, block: int32(block)})
	s.lo, s.hi = s.ranges[0].base, s.ranges[len(s.ranges)-1].end
	return nil
}

// Touch observes a memory-level access to addr and returns the stall cycles
// it causes: zero for addresses outside every registered window or within a
// resident block, the fetch cost otherwise. Resident blocks are bumped to
// MRU either way. Group and join tables lie outside every window, so an
// address outside [lo, hi) returns before the search.
func (s *StorageSet) Touch(addr uint64) uint64 {
	ri := s.lastRange
	if ri < 0 || addr < s.ranges[ri].base || addr >= s.ranges[ri].end {
		if addr < s.lo || addr >= s.hi {
			return 0
		}
		ri = s.findRange(addr)
		if ri < 0 {
			return 0
		}
		s.lastRange = ri
	}
	b := s.ranges[ri].block
	if s.resident[b] {
		s.ctr.BlockHits++
		s.bumpMRU(b)
		return 0
	}
	return s.fetch(b)
}

// findRange locates the window containing addr, or -1.
func (s *StorageSet) findRange(addr uint64) int {
	lo, hi := 0, len(s.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ranges[mid].end <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.ranges) && addr >= s.ranges[lo].base {
		return lo
	}
	return -1
}

// fetch transfers block b in, evicting past the budget, and returns the
// stall cycles charged.
func (s *StorageSet) fetch(b int32) uint64 {
	cost := s.costBytes[b]
	stall := s.cfg.LatencyCycles + (cost+s.cfg.BytesPerCycle-1)/s.cfg.BytesPerCycle
	s.ctr.BlockFetches++
	s.ctr.BytesFetched += cost
	s.ctr.StallCycles += stall

	s.resident[b] = true
	s.residentBytes += cost
	s.prev[b] = -1
	s.next[b] = s.head
	if s.head >= 0 {
		s.prev[s.head] = b
	}
	s.head = b
	if s.tail < 0 {
		s.tail = b
	}
	if s.obs != nil {
		s.obs(StorageFetch, int(b), cost, stall)
	}
	if s.cfg.BudgetBytes > 0 {
		for s.residentBytes > s.cfg.BudgetBytes && s.tail != b {
			s.evictTail()
		}
	}
	return stall
}

// bumpMRU moves resident block b to the list head.
func (s *StorageSet) bumpMRU(b int32) {
	if s.head == b {
		return
	}
	p, n := s.prev[b], s.next[b]
	if p >= 0 {
		s.next[p] = n
	}
	if n >= 0 {
		s.prev[n] = p
	}
	if s.tail == b {
		s.tail = p
	}
	s.prev[b] = -1
	s.next[b] = s.head
	if s.head >= 0 {
		s.prev[s.head] = b
	}
	s.head = b
}

// evictTail drops the LRU block.
func (s *StorageSet) evictTail() {
	b := s.tail
	if b < 0 {
		return
	}
	s.resident[b] = false
	s.residentBytes -= s.costBytes[b]
	s.ctr.Evictions++
	if s.obs != nil {
		s.obs(StorageEvict, int(b), 0, 0)
	}
	p := s.prev[b]
	s.tail = p
	if p >= 0 {
		s.next[p] = -1
	} else {
		s.head = -1
	}
	s.prev[b] = -1
	s.next[b] = -1
}

// Counters returns the monotonic statistics.
func (s *StorageSet) Counters() StorageCounters { return s.ctr }

// ResidentBytes returns the bytes currently held in the DRAM budget.
func (s *StorageSet) ResidentBytes() uint64 { return s.residentBytes }

// Cold returns the view to its constructed state: nothing resident and every
// counter zero, as NewStorageSet plus the plan's blocks and ranges left it.
// It is the tier's half of a cold start (cpu.CPU.Cold is the core's), so the
// counters read after a run are that run's alone.
func (s *StorageSet) Cold() {
	for i := range s.resident {
		s.resident[i] = false
		s.prev[i] = -1
		s.next[i] = -1
	}
	s.head, s.tail, s.lastRange = -1, -1, -1
	s.residentBytes = 0
	s.ctr = StorageCounters{}
}
