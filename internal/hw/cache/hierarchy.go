package cache

import "fmt"

// HierarchyConfig describes a three-level data-cache hierarchy plus memory.
type HierarchyConfig struct {
	// L1, L2, L3 are the per-level geometries; all must share one LineSize
	// and each level must be at least as large as the one above it.
	L1, L2, L3 Config
	// MemLatencyCycles is the load-to-use latency of a main-memory access.
	MemLatencyCycles int
	// PrefetchDisabled turns the L2 streamer off (used by ablation benches;
	// the paper's cost model explicitly includes prefetch traffic).
	PrefetchDisabled bool
}

func (c HierarchyConfig) validate() error {
	for _, lv := range []Config{c.L1, c.L2, c.L3} {
		if err := lv.validate(); err != nil {
			return err
		}
	}
	if c.L1.LineSize != c.L2.LineSize || c.L2.LineSize != c.L3.LineSize {
		return fmt.Errorf("cache: line sizes differ across levels (%d/%d/%d)",
			c.L1.LineSize, c.L2.LineSize, c.L3.LineSize)
	}
	if c.L1.SizeBytes > c.L2.SizeBytes || c.L2.SizeBytes > c.L3.SizeBytes {
		return fmt.Errorf("cache: levels must not shrink downward (%d/%d/%d bytes)",
			c.L1.SizeBytes, c.L2.SizeBytes, c.L3.SizeBytes)
	}
	if c.MemLatencyCycles <= 0 {
		return fmt.Errorf("cache: non-positive memory latency %d", c.MemLatencyCycles)
	}
	return nil
}

// HitLevel identifies where a load was satisfied.
type HitLevel int

// Hit levels, ordered by distance from the core.
const (
	HitL1 HitLevel = iota + 1
	HitL2
	HitL3
	HitMem
)

// String returns "L1", "L2", "L3", or "Mem".
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	case HitMem:
		return "Mem"
	}
	return fmt.Sprintf("HitLevel(%d)", int(h))
}

// AccessResult describes one completed load.
type AccessResult struct {
	// Level is where the line was found.
	Level HitLevel
	// LatencyCycles is the load-to-use latency implied by Level.
	LatencyCycles int
}

// Counters is a snapshot of every event count the hierarchy maintains.
type Counters struct {
	L1, L2, L3 Stats
	// L3PrefetchAccesses counts streamer requests presented to L3; the
	// paper's "L3 access" PMU event is L3.Accesses + L3PrefetchAccesses.
	L3PrefetchAccesses uint64
	// MemAccesses counts line transfers from memory (demand and prefetch).
	MemAccesses uint64
}

// L3TotalAccesses returns the paper's L3-access counter: demand requests that
// missed L2 plus prefetcher requests (§2.2.2).
func (c Counters) L3TotalAccesses() uint64 { return c.L3.Accesses + c.L3PrefetchAccesses }

// Sub returns c - prev, field by field (for vector-granular deltas).
func (c Counters) Sub(prev Counters) Counters {
	sub := func(a, b Stats) Stats {
		return Stats{
			Accesses:        a.Accesses - b.Accesses,
			Hits:            a.Hits - b.Hits,
			Misses:          a.Misses - b.Misses,
			PrefetchInserts: a.PrefetchInserts - b.PrefetchInserts,
		}
	}
	return Counters{
		L1:                 sub(c.L1, prev.L1),
		L2:                 sub(c.L2, prev.L2),
		L3:                 sub(c.L3, prev.L3),
		L3PrefetchAccesses: c.L3PrefetchAccesses - prev.L3PrefetchAccesses,
		MemAccesses:        c.MemAccesses - prev.MemAccesses,
	}
}

// Hierarchy is a three-level inclusive cache hierarchy with an L2 streamer.
type Hierarchy struct {
	cfg                HierarchyConfig
	l1, l2, l3         *Level
	pf                 *StreamPrefetcher
	lineShift          uint
	l3PrefetchAccesses uint64
	memAccesses        uint64
	// lastLine (line id + 1; 0 = invalid) and lastSlot memoize the line of
	// the immediately preceding demand load and its L1 tag slot. A repeat
	// load of the same line is then a guaranteed L1-MRU hit — nothing but
	// the demand load itself writes L1 — and takes an exact fast path that
	// replicates a hit Lookup's counter and LRU effects without the
	// associative search. Batch kernels stream columns op-major, so their
	// sequential loads repeat lines back to back and ride this path.
	lastLine uint64
	lastSlot int
	// memoLines/memoSlots generalize the same memo to a small direct-mapped
	// table of recently loaded lines, which catches the row-major pattern of
	// the scalar engine (one resident line per column, touched in rotation).
	// Unlike lastLine, an entry here is a *guess*: the line may have been
	// evicted since. Every use is validated by TouchLine (slot still holds
	// the line), which makes the fast path exact — a line present at the
	// memoized slot would hit an associative Lookup with precisely the same
	// counter, clock, and MRU-stamp effects.
	memoLines [memoEntries]uint64
	memoSlots [memoEntries]int
	// st, when attached, is a storage tier below DRAM: every access that
	// reaches memory consults it and may pay additional whole-cycle block
	// stalls, accumulated in storageStalls. The tier never alters cache
	// contents or any counter above, so attaching it leaves the PMU event
	// stream bit-identical. storageStalls is monotonic across ResetCounters
	// (like the CPU's own stall clock); cores snapshot and subtract.
	st            *StorageSet
	storageStalls uint64

	// Pads the struct to a multiple of 128 bytes: see the false-sharing layout
	// rule in DESIGN.md (pinned by TestLayoutNoFalseSharing).
	_ [8]byte
}

// memoEntries sizes the direct-mapped line memo (power of two, comfortably
// more than the column count of typical plans).
const memoEntries = 32

// NewHierarchy builds a hierarchy from its configuration.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l1, err := NewLevel(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := NewLevel(cfg.L2)
	if err != nil {
		return nil, err
	}
	l3, err := NewLevel(cfg.L3)
	if err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.L1.LineSize {
		shift++
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, l3: l3, pf: NewStreamPrefetcher(), lineShift: shift}, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// LineSize returns the cache-line size in bytes.
func (h *Hierarchy) LineSize() int { return h.cfg.L1.LineSize }

// LineShift returns log2(LineSize), the byte-address-to-line-id shift.
func (h *Hierarchy) LineShift() uint { return h.lineShift }

// Load performs a demand load of the line containing addr and returns where
// it hit. Fills are inclusive (a miss installs the line in every level above
// the hit level). The streamer observes all demand traffic reaching L2 (that
// is, L1 misses) and pulls upcoming lines into L2 and L3, consuming one L3
// access slot per prefetch request — so the exposed L3-access count is the
// paper's counter: demand L2-misses plus prefetcher requests.
func (h *Hierarchy) Load(addr uint64) AccessResult {
	ln := (addr >> h.lineShift) + 1
	mi := ln & (memoEntries - 1)
	if h.memoHit(ln, mi) {
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	}
	res := h.loadLine(ln)
	h.lastLine, h.lastSlot = ln, h.l1.lastSlot
	h.memoLines[mi], h.memoSlots[mi] = ln, h.l1.lastSlot
	return res
}

// memoHit tries the validated memo fast path for line ln (memo index mi):
// when the memoized slot still holds the line, it records exactly one hit
// Lookup — counters, MRU promotion, lastSlot — with the associative probe
// skipped, and refreshes the same-line memo. This is the hottest path of
// both engines; the single copy keeps the hit accounting impossible to
// drift between the scalar and run-batched entry points.
func (h *Hierarchy) memoHit(ln, mi uint64) bool {
	if h.memoLines[mi] != ln {
		return false
	}
	l1, idx := h.l1, h.memoSlots[mi]
	if l1.tags[idx] != ln {
		return false
	}
	l1.stats.Accesses++
	l1.stats.Hits++
	set := int(ln & l1.setMask)
	l1.moveToHead(set, set*l1.ways, idx-set*l1.ways)
	l1.lastSlot = idx
	h.lastLine, h.lastSlot = ln, idx
	return true
}

// loadLine is the full lookup-and-fill path for the line with id ln; after it
// returns, the demand line is L1-resident at l1.lastSlot as the MRU of its
// set. The line id is computed once by the caller and shared by every level
// probe — all levels of a hierarchy have one line size, so the set/tag math
// is hoisted out of the per-level (and, for batched runs, per-element) loop.
func (h *Hierarchy) loadLine(ln uint64) AccessResult {
	if h.l1.LookupLine(ln) {
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	}
	if !h.cfg.PrefetchDisabled {
		for _, pl := range h.pf.Observe(ln - 1) {
			// Each prefetch request occupies an L3 access slot whether or not
			// the line is already present somewhere.
			h.l3PrefetchAccesses++
			pln := pl + 1
			if !h.l3.ContainsLine(pln) {
				h.memAccesses++
				if h.st != nil {
					h.storageStalls += h.st.Touch((pln - 1) << h.lineShift)
				}
				h.l3.insertLineAbsent(pln)
				h.l3.stats.PrefetchInserts++
			}
			h.l2.InsertLine(pln, true)
		}
	}
	// Demand fills below insert lines their own level's lookup just missed,
	// so the present-already re-check is skipped (insertLineAbsent).
	if h.l2.LookupLine(ln) {
		h.l1.insertLineAbsent(ln)
		return AccessResult{Level: HitL2, LatencyCycles: h.cfg.L2.LatencyCycles}
	}
	if h.l3.LookupLine(ln) {
		h.l2.insertLineAbsent(ln)
		h.l1.insertLineAbsent(ln)
		return AccessResult{Level: HitL3, LatencyCycles: h.cfg.L3.LatencyCycles}
	}
	h.memAccesses++
	if h.st != nil {
		h.storageStalls += h.st.Touch((ln - 1) << h.lineShift)
	}
	h.l3.insertLineAbsent(ln)
	h.l2.insertLineAbsent(ln)
	h.l1.insertLineAbsent(ln)
	return AccessResult{Level: HitMem, LatencyCycles: h.cfg.MemLatencyCycles}
}

// RunHits counts the demand loads of one batched run by the level that
// satisfied each of them. It is the whole result a caller needs to account a
// run: per-load latency is a function of the hit level alone, so the CPU
// converts the four counts into stall cycles without ever seeing individual
// loads.
type RunHits struct {
	L1, L2, L3, Mem int
}

// Total returns the number of demand loads in the run.
func (r RunHits) Total() int { return r.L1 + r.L2 + r.L3 + r.Mem }

// Plus returns the level-wise sum of two runs' counts.
func (r RunHits) Plus(o RunHits) RunHits {
	return RunHits{L1: r.L1 + o.L1, L2: r.L2 + o.L2, L3: r.L3 + o.L3, Mem: r.Mem + o.Mem}
}

// add accounts one completed load at the given hit level.
func (r *RunHits) add(lv HitLevel) {
	switch lv {
	case HitL1:
		r.L1++
	case HitL2:
		r.L2++
	case HitL3:
		r.L3++
	default:
		r.Mem++
	}
}

// loadRunFirst performs the leading demand load of a same-line streak —
// validated memo fast path or full lookup-and-fill — and leaves the memo
// pointing at the streak's line.
func (h *Hierarchy) loadRunFirst(ln uint64, rh *RunHits) {
	mi := ln & (memoEntries - 1)
	if h.memoHit(ln, mi) {
		rh.L1++
		return
	}
	rh.add(h.loadLine(ln).Level)
	h.lastLine, h.lastSlot = ln, h.l1.lastSlot
	h.memoLines[mi], h.memoSlots[mi] = ln, h.l1.lastSlot
}

// LoadRun performs n demand loads at start, start+stride, ... in one call,
// with counter, LRU, and prefetcher effects identical to n Load calls.
// Same-line streaks are collapsed: the streak length is computed in closed
// form from the stride, the first access runs the full path, and the
// remaining accesses are guaranteed L1-MRU hits recorded as one counted
// touch. stride must be positive.
func (h *Hierarchy) LoadRun(start uint64, stride, n int) RunHits {
	var rh RunHits
	if n <= 0 {
		return rh
	}
	shift := h.lineShift
	lineSize := uint64(1) << shift
	st := uint64(stride)
	for i := 0; i < n; {
		addr := start + uint64(i)*st
		ln := (addr >> shift) + 1
		// Elements i..j-1 share the line: the next line starts at boundary.
		boundary := (addr | (lineSize - 1)) + 1
		j := i + int((boundary-addr+st-1)/st)
		if j > n {
			j = n
		}
		h.loadRunFirst(ln, &rh)
		if rep := j - i - 1; rep > 0 {
			h.l1.touchSlotN(h.lastSlot, ln, rep)
			rh.L1 += rep
		}
		i = j
	}
	return rh
}

// LoadSel performs one demand load per selected row of a column at base with
// the given stride, in selection order, with effects identical to per-row
// Load calls. Runs of rows sharing one cache line after the run's first load
// are guaranteed L1-MRU repeats and are recorded as one counted touch.
func (h *Hierarchy) LoadSel(base uint64, stride int, rows []int32) RunHits {
	var rh RunHits
	shift := h.lineShift
	st := uint64(stride)
	n := len(rows)
	for i := 0; i < n; {
		ln := ((base + uint64(rows[i])*st) >> shift) + 1
		j := i + 1
		for j < n && ((base+uint64(rows[j])*st)>>shift)+1 == ln {
			j++
		}
		h.loadRunFirst(ln, &rh)
		if rep := j - i - 1; rep > 0 {
			h.l1.touchSlotN(h.lastSlot, ln, rep)
			rh.L1 += rep
		}
		i = j
	}
	return rh
}

// LoadStream performs one demand load per address, in order, with effects
// identical to per-element Load calls — the gather path of kernels whose
// address streams are data-dependent (join probes, hash-table touches).
// Consecutive same-line addresses collapse into counted L1 touches.
func (h *Hierarchy) LoadStream(addrs []uint64) RunHits {
	var rh RunHits
	shift := h.lineShift
	n := len(addrs)
	for i := 0; i < n; {
		ln := (addrs[i] >> shift) + 1
		j := i + 1
		for j < n && (addrs[j]>>shift)+1 == ln {
			j++
		}
		h.loadRunFirst(ln, &rh)
		if rep := j - i - 1; rep > 0 {
			h.l1.touchSlotN(h.lastSlot, ln, rep)
			rh.L1 += rep
		}
		i = j
	}
	return rh
}

// Counters returns a snapshot of all event counts.
func (h *Hierarchy) Counters() Counters {
	return Counters{
		L1:                 h.l1.Stats(),
		L2:                 h.l2.Stats(),
		L3:                 h.l3.Stats(),
		L3PrefetchAccesses: h.l3PrefetchAccesses,
		MemAccesses:        h.memAccesses,
	}
}

// Flush empties all levels and prefetcher streams; counters are preserved.
func (h *Hierarchy) Flush() {
	h.l1.Flush()
	h.l2.Flush()
	h.l3.Flush()
	h.pf.Reset()
	h.lastLine = 0
	h.memoLines = [memoEntries]uint64{}
}

// AttachStorage installs (or, with nil, removes) a storage tier below DRAM.
// The tier observes every access that reaches memory and charges block-fetch
// stalls; it has no effect on cache contents or counters.
func (h *Hierarchy) AttachStorage(st *StorageSet) { h.st = st }

// Storage returns the attached storage tier, or nil.
func (h *Hierarchy) Storage() *StorageSet { return h.st }

// StorageStallCycles returns the cumulative stall cycles charged by the
// storage tier. Monotonic: not cleared by ResetCounters, so it composes with
// the CPU's cycle clock the way stallQuarters does.
func (h *Hierarchy) StorageStallCycles() uint64 { return h.storageStalls }

// ResetCounters zeroes all event counts; cache contents are preserved.
func (h *Hierarchy) ResetCounters() {
	h.l1.ResetStats()
	h.l2.ResetStats()
	h.l3.ResetStats()
	h.l3PrefetchAccesses = 0
	h.memAccesses = 0
}
