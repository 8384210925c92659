package cache

import "fmt"

// HierarchyConfig describes a three-level data-cache hierarchy plus memory.
type HierarchyConfig struct {
	// L1, L2, L3 are the per-level geometries; all must share one LineSize
	// and each level must be at least as large as the one above it.
	L1, L2, L3 Config
	// MemLatencyCycles is the load-to-use latency of a main-memory access.
	MemLatencyCycles int
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

// Hierarchy is a three-level inclusive cache hierarchy with an L2 streamer.
// It is split at L1: the fields up to lo hold L1 and everything a caller's
// thread needs to run it, lo holds the levels below. The two halves sit in
// separate 128-byte sectors, so while a helper thread simulates the lower one
// (Stage) neither thread writes a cache line the other reads.
type Hierarchy struct {
	cfg       HierarchyConfig
	l1        *Level
	lineShift uint
	// lines is the chunk buffer of the batched core (see loadLines), sized
	// once by NewHierarchy and never grown: the line ids of the chunk being
	// loaded, compacted in place to its L1 misses.
	lines []uint64
	// sg is the hand-off to a helper thread, allocated by the first Stage;
	// staged says loadLines hands its L1 misses to it (see Stage).
	sg     *stage
	staged bool
	// memoLines/memoSlots are Load's direct-mapped memo of recently loaded
	// lines (id + 1; 0 = none) and the L1 tag slots they were left in. An
	// entry is a guess — the line may have been evicted or moved since, by a
	// Load or by a batch — and is believed only while the slot still holds
	// the line; a line present at a known slot would hit an associative
	// Lookup with precisely the same counter and recency effects.
	memoLines [memoEntries]uint64
	memoSlots [memoEntries]int

	// Pads the caller's half to a multiple of 128 bytes, so lo starts a
	// sector of its own: see the false-sharing layout rule in DESIGN.md
	// (pinned by TestLayoutNoFalseSharing).
	_  [48]byte
	lo lower
}

// lower is the part of a hierarchy below L1: the streamer, L2, L3, memory
// and the storage tier. Its op stream is the L1 misses in order, and nothing
// in it ever reaches back into L1, so it may run behind L1 on another thread.
type lower struct {
	l2, l3    *Level
	pf        *StreamPrefetcher
	lineShift uint
	// ops is the op stream the streamer expands a piece of L1 misses into for
	// L2 and L3, sized once and never grown.
	ops []uint64
	// l2mru holds, per L2 set, the line that set holds at MRU once every op
	// emitted so far has been applied (0: none since the last Flush). Every
	// op L2 applies leaves its line at MRU, so this is the line of the set's
	// last op; between calls it is the set's MRU tag.
	l2mru              []uint64
	l3PrefetchAccesses uint64
	memAccesses        uint64
	// st, when attached, is a storage tier below DRAM: every access that
	// reaches memory consults it and may pay whole-cycle block stalls, which
	// the tier's own counters record. The tier never alters cache contents or
	// any counter above, so attaching it leaves the PMU event stream
	// bit-identical.
	st *StorageSet

	// Pads the struct to a multiple of 128 bytes (TestLayoutNoFalseSharing).
	_ [24]byte
}

// memoEntries sizes Load's line memo (power of two, comfortably more than
// the column count of typical plans).
const memoEntries = 32

// chunkLines is how many line ids one round of passes takes: large enough
// that a pass's set-up is amortised, small enough that both buffers (2 KB and
// 4 KB) stay in the host L1 next to the simulated L1's arrays. A chunk of
// misses fills ops only when every miss also issues a prefetch, the steady
// state of a sequential scan; anything denser drains into L2 and L3 before
// the chunk's last miss (see lower.run).
const chunkLines = 256

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
	buf := sectorSlice[uint64](3*chunkLines + len(l2.heads))
	return &Hierarchy{
		cfg: cfg, l1: l1, lineShift: shift, lines: buf[:chunkLines:chunkLines],
		lo: lower{
			l2: l2, l3: l3, pf: NewStreamPrefetcher(), lineShift: shift,
			ops: buf[chunkLines : 3*chunkLines : 3*chunkLines], l2mru: buf[3*chunkLines:],
		},
	}, nil
}

// Load performs a demand load of the line containing addr and returns where
// it hit. Fills are inclusive (a miss installs the line in every level above
// the hit level). The streamer observes all demand traffic reaching L2 (that
// is, L1 misses) and pulls upcoming lines into L2 and L3, consuming one L3
// access slot per prefetch request — so the exposed L3-access count is the
// paper's counter: demand L2-misses plus prefetcher requests.
//
// A single load is a batch of one line, behind a memo: the row-at-a-time
// engine touches one resident line per column in rotation, and a load whose
// line still sits in the L1 slot the memo remembers is recorded as the hit
// Lookup it would be — counted, promoted to MRU — without the passes.
func (h *Hierarchy) Load(addr uint64) AccessResult {
	ln := (addr >> h.lineShift) + 1
	mi := ln & (memoEntries - 1)
	l1 := h.l1
	if slot := h.memoSlots[mi]; h.memoLines[mi] == ln && l1.tags[slot] == ln {
		l1.stats.Accesses++
		l1.stats.Hits++
		set := int(ln & l1.setMask)
		l1.moveToHead(set, set*l1.ways, slot-set*l1.ways)
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	}
	h.lines[0] = ln
	rh, miss := h.runL1(h.lines[:1], 0)
	if len(miss) != 0 {
		// The caller needs the level now: let a stage catch up, then take
		// the levels below for this one line.
		h.wait()
		rh = rh.Plus(h.lo.run(miss))
	}
	h.memoLines[mi], h.memoSlots[mi] = ln, l1.mruSlot(ln)
	switch {
	case rh.L1 != 0:
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	case rh.L2 != 0:
		return AccessResult{Level: HitL2, LatencyCycles: h.cfg.L2.LatencyCycles}
	case rh.L3 != 0:
		return AccessResult{Level: HitL3, LatencyCycles: h.cfg.L3.LatencyCycles}
	}
	return AccessResult{Level: HitMem, LatencyCycles: h.cfg.MemLatencyCycles}
}

// RunHits counts the demand loads of one batched run by the level that
// satisfied each of them. It is the whole result a caller needs to account a
// run: per-load latency is a function of the hit level alone, so the CPU
// converts the counts into stall cycles without ever seeing individual loads.
type RunHits struct {
	L1, L2, L3, Mem int
	// Lower counts the loads of a staged hierarchy that missed L1 and were
	// handed to the levels below, whose verdict the next Drain returns.
	Lower int
}

// Total returns the number of demand loads in the run.
func (r RunHits) Total() int { return r.L1 + r.L2 + r.L3 + r.Mem + r.Lower }

// Plus returns the level-wise sum of two runs' counts.
func (r RunHits) Plus(o RunHits) RunHits {
	return RunHits{L1: r.L1 + o.L1, L2: r.L2 + o.L2, L3: r.L3 + o.L3, Mem: r.Mem + o.Mem, Lower: r.Lower + o.Lower}
}

// loadLines is the one lookup-and-fill path: it demand-loads lines (ids + 1,
// at most chunkLines of them, consumed) in order, plus reps further loads
// that each repeat the line loaded just before them, with the counter, LRU,
// streamer and storage-tier effects of loading them one address at a time.
//
// The work is done level by level instead of address by address. Fills are
// inclusive and nothing below ever invalidates a line above, so a level's
// contents and recency are a function of its own op stream in order — and
// that stream is the in-order misses of the level above (plus, from L2 down,
// the streamer's requests, which are a function of the L1 misses alone). So
// the chunk goes through L1 (runL1) and its misses through the levels below
// (lower.run) — at once, or, on a staged hierarchy, whenever the helper
// thread gets to them.
func (h *Hierarchy) loadLines(lines []uint64, reps int) RunHits {
	rh, miss := h.runL1(lines, reps)
	switch {
	case len(miss) == 0:
	case h.staged:
		h.push(miss)
		rh.Lower = len(miss)
	default:
		rh = rh.Plus(h.lo.run(miss))
	}
	return rh
}

// runL1 runs lines and reps repeats through L1 and returns the L1 hits and,
// compacted into lines, the misses. A repeat finds its line at the head of
// its L1 set, so it moves nothing and is only counted.
func (h *Hierarchy) runL1(lines []uint64, reps int) (RunHits, []uint64) {
	l1 := h.l1
	miss := l1.run(lines, false)
	l1.stats.Accesses += uint64(reps)
	l1.stats.Hits += uint64(reps)
	return RunHits{L1: len(lines) - len(miss) + reps}, miss
}

// run loads a piece of the L1 miss stream (line ids + 1, at most chunkLines) and
// returns how many of the loads L2, L3 and memory served. Each miss goes
// through the streamer, the resulting op stream through L2 and what L2 lets
// through through L3, each as one loop over one level's arrays (Level.run);
// the lines that reach memory visit the storage tier last, still in order.
// A demand miss whose line its L2 set will hold at MRU when L2 reaches it
// (l2mru) is counted as an L2 hit and never enters the op stream. Any
// in-order split of the miss stream gives the same state.
func (lo *lower) run(miss []uint64) RunHits {
	l2Hits, l3Hits, l3Misses := lo.l2.stats.Hits, lo.l3.stats.Hits, lo.l3.stats.Misses
	mru, mask := lo.l2mru, lo.l2.setMask
	ops, mruHits := lo.ops[:0], uint64(0)
	for _, ln := range miss {
		from, n := lo.pf.observe(ln - 1)
		// Each prefetch request occupies an L3 access slot whether or not the
		// line is already present somewhere.
		lo.l3PrefetchAccesses += uint64(n)
		if len(ops)+n >= cap(ops) {
			lo.apply(ops)
			ops = ops[:0]
		}
		for k := 1; k <= n; k++ {
			pln := from + uint64(k) + 1 // ops carry line id + 1
			mru[pln&mask] = pln
			ops = append(ops, pln|prefetchOp)
		}
		if mru[ln&mask] == ln {
			mruHits++
			continue
		}
		mru[ln&mask] = ln
		ops = append(ops, ln)
	}
	lo.apply(ops)
	lo.l2.stats.Accesses += mruHits
	lo.l2.stats.Hits += mruHits
	return RunHits{
		L2:  int(lo.l2.stats.Hits - l2Hits),
		L3:  int(lo.l3.stats.Hits - l3Hits),
		Mem: int(lo.l3.stats.Misses - l3Misses),
	}
}

// apply runs a piece of the op stream below L1 (consumed) through L2, L3 and
// the storage tier. Any in-order split of the stream gives the same state.
func (lo *lower) apply(ops []uint64) {
	ops = lo.l3.run(lo.l2.run(ops, false), true)
	lo.memAccesses += uint64(len(ops))
	if lo.st != nil {
		for _, op := range ops {
			lo.st.Touch((op&^prefetchOp - 1) << lo.lineShift)
		}
	}
}

// LoadRun performs n demand loads at start, start+stride, ... in one call,
// with counter, LRU, and prefetcher effects identical to n Load calls. The
// lines are known in closed form: a stride of at most a line visits every
// line from the first element's to the last's, ascending, and each further
// element on a line repeats it; a wider stride never puts two neighbouring
// elements on one line. stride must be positive.
func (h *Hierarchy) LoadRun(start uint64, stride, n int) RunHits {
	var rh RunHits
	if n <= 0 {
		return rh
	}
	shift := h.lineShift
	step, left, reps := uint64(stride), n, 0 // step: address distance between consecutive lines
	if stride <= 1<<shift {
		step = 1 << shift
		left = int((start+uint64(n-1)*uint64(stride))>>shift-start>>shift) + 1
		reps = n - left
	}
	for addr := start; left > 0; {
		lines := h.lines[:min(left, chunkLines)]
		for i := range lines {
			lines[i] = addr>>shift + 1
			addr += step
		}
		rh = rh.Plus(h.loadLines(lines, reps))
		left, reps = left-len(lines), 0
	}
	return rh
}

// LoadSel performs one demand load per selected row of a column at base with
// the given stride, in selection order, with effects identical to per-row
// Load calls. A row on the line of the row before it is a repeat.
func (h *Hierarchy) LoadSel(base uint64, stride int, rows []int32) RunHits {
	var rh RunHits
	shift := h.lineShift
	st := uint64(stride)
	lines, last := h.lines[:chunkLines], uint64(0)
	for len(rows) > 0 {
		chunk := rows[:min(len(rows), chunkLines)]
		rows = rows[len(chunk):]
		// Whether two selected rows share a line is a coin flip the host
		// cannot predict, so repeats are dropped without a branch: every id
		// is stored, and the cursor moves on only past a new line.
		n := 0
		for _, r := range chunk {
			ln := ((base + uint64(r)*st) >> shift) + 1
			lines[n] = ln
			if ln != last {
				n++
			}
			last = ln
		}
		rh = rh.Plus(h.loadLines(lines[:n], len(chunk)-n))
	}
	return rh
}

// LoadStream performs one demand load per address, in order, with effects
// identical to per-element Load calls — the gather path of kernels whose
// address streams are data-dependent (join probes, hash-table touches).
// An address on the line of the address before it is a repeat.
func (h *Hierarchy) LoadStream(addrs []uint64) RunHits {
	var rh RunHits
	shift := h.lineShift
	lines, last := h.lines[:chunkLines], uint64(0)
	for len(addrs) > 0 {
		chunk := addrs[:min(len(addrs), chunkLines)]
		addrs = addrs[len(chunk):]
		n := 0
		for _, a := range chunk {
			ln := (a >> shift) + 1
			lines[n] = ln
			if ln != last {
				n++
			}
			last = ln
		}
		rh = rh.Plus(h.loadLines(lines[:n], len(chunk)-n))
	}
	return rh
}

// Counters returns a snapshot of all event counts.
func (h *Hierarchy) Counters() Counters {
	h.wait()
	lo := &h.lo
	return Counters{
		L1:                 h.l1.Stats(),
		L2:                 lo.l2.Stats(),
		L3:                 lo.l3.Stats(),
		L3PrefetchAccesses: lo.l3PrefetchAccesses,
		MemAccesses:        lo.memAccesses,
	}
}

// Flush empties all levels and prefetcher streams; counters are preserved.
func (h *Hierarchy) Flush() {
	h.wait()
	h.l1.Flush()
	h.lo.l2.Flush()
	h.lo.l3.Flush()
	h.lo.pf.Reset()
	h.memoLines = [memoEntries]uint64{}
	clear(h.lo.l2mru)
}

// AttachStorage installs (or, with nil, removes) a storage tier below DRAM.
// The tier observes every access that reaches memory and charges block-fetch
// stalls; it has no effect on cache contents or counters. A staged hierarchy
// is unstaged first: the tier's observer may read the core's clock.
func (h *Hierarchy) AttachStorage(st *StorageSet) {
	h.Unstage()
	h.lo.st = st
}
