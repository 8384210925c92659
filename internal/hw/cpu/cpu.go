package cpu

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"progopt/internal/hw/branch"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/pmu"
)

// CPU is one simulated core: predictor + cache hierarchy + PMU + cycle
// accounting, plus a bump allocator for the synthetic physical address space
// that columns and hash tables live in.
type CPU struct {
	prof Profile
	pred branch.Predictor
	// sat and gs alias pred when it is one of the two concrete predictor
	// models, devirtualizing the per-branch Observe call on the hot path and
	// enabling the O(1)/early-exit ObserveN batch forms.
	sat *branch.Saturating
	gs  *branch.Gshare
	mem *cache.Hierarchy

	// stallQ holds the per-hit-level memory stall in quarter-cycles, indexed
	// by cache.HitLevel; precomputed so batched runs convert per-level hit
	// counts into stall time with three multiplies.
	stallQ [cache.HitMem + 1]uint64

	// Branch event counters (cache events live in the hierarchy and are
	// merged into samples on read).
	brCond, brTaken, brNotTaken uint64
	brMPTaken, brMPNotTaken     uint64

	instructions uint64
	// stallQuarters accumulates memory/branch stall time in quarter-cycles so
	// cycle accounting stays integral at IssueWidth 4.
	stallQuarters uint64

	// The clock epoch Cold last opened: the clock's value then, and the
	// instruction and stall-quarter totals it is counted from since. Zero on a
	// new core.
	epochCycles, epochInstr, epochStallQ uint64

	allocNext  uint64
	allocCount uint64

	// addrBuf is the reusable scratch batch kernels gather data-dependent
	// address streams (join probes, hash-table touches) into before handing
	// them to LoadAddrs in one call; keyBuf holds the values those addresses
	// were derived from, for kernels that need them again after the loads
	// (the join's branch phase); bitBuf holds the branch directions a predicate
	// kernel packs for CondBranchBits.
	addrBuf []uint64
	keyBuf  []int64
	bitBuf  []uint64

	// progress, when non-nil, is where this core publishes progressBase +
	// Cycles() after every batched load run (see SetProgress). Nil — the
	// state of every core outside a host-parallel morsel — keeps the load
	// paths free of atomics and of chunking.
	progress     *atomic.Uint64
	progressBase uint64

	// Pads the struct to a multiple of 128 bytes so two cores' hot counters
	// never share a cache-line pair (see DESIGN.md, "False-sharing layout
	// rule"; pinned by TestLayoutNoFalseSharing).
	_ [32]byte
}

// progressChunk is how many gathered loads a core simulates between two
// publications of its clock while a progress cell is attached.
const progressChunk = 128

// New builds a CPU from a profile.
func New(prof Profile) (*CPU, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	pred, err := branch.ForArch(prof.Arch)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(prof.Hierarchy)
	if err != nil {
		return nil, err
	}
	c := &CPU{
		prof: prof,
		mem:  mem,
		// Leave a null guard page; allocations start at 1 MB.
		allocNext: 1 << 20,
	}
	c.setPredictor(pred)
	stall := func(lat int) uint64 {
		s := (lat - prof.Hierarchy.L1.LatencyCycles) * 4 / prof.MemParallelism
		if s < 0 {
			return 0
		}
		return uint64(s)
	}
	c.stallQ[cache.HitL2] = stall(prof.Hierarchy.L2.LatencyCycles)
	c.stallQ[cache.HitL3] = stall(prof.Hierarchy.L3.LatencyCycles)
	c.stallQ[cache.HitMem] = stall(prof.Hierarchy.MemLatencyCycles)
	return c, nil
}

// setPredictor installs the core's branch predictor and its devirtualized
// aliases.
func (c *CPU) setPredictor(pred branch.Predictor) {
	c.pred, c.sat, c.gs = pred, nil, nil
	switch p := pred.(type) {
	case *branch.Saturating:
		c.sat = p
	case *branch.Gshare:
		c.gs = p
	}
}

// MustNew is New that panics on error, for statically valid profiles.
func MustNew(prof Profile) *CPU {
	c, err := New(prof)
	if err != nil {
		panic(err)
	}
	return c
}

// Profile returns the CPU's profile.
func (c *CPU) Profile() Profile { return c.prof }

// Hierarchy exposes the cache hierarchy: for reading, and for the executor
// to stage it (cache.Hierarchy.Stage), which leaves every simulated
// observable of the core as it is.
func (c *CPU) Hierarchy() *cache.Hierarchy { return c.mem }

// Alloc reserves size bytes of the synthetic address space, aligned to 4 KB
// with a 4 KB guard gap, and returns the base address. The engine assigns one
// allocation per column so access locality is faithful to a columnar layout.
//
// Bases are staggered by a few cache lines per allocation (cache coloring):
// purely page-aligned column bases would map every column's current line
// into the same L1 set when scanned in lockstep, a power-of-two-stride
// pathology the scaled-down L1 (few sets) would otherwise amplify far beyond
// what the paper's 64-set L1 exhibits.
func (c *CPU) Alloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cpu: non-positive allocation size %d", size)
	}
	const page = 4096
	lineSize := uint64(c.prof.Hierarchy.L1.LineSize)
	stagger := (c.allocCount * 5 % 63) * lineSize
	c.allocCount++
	base := c.allocNext + stagger
	c.allocNext += (uint64(size) + stagger + 2*page - 1) / page * page
	return base, nil
}

// Load performs one demand load at addr: one retired instruction plus the
// memory-stall cost of wherever the line was found.
func (c *CPU) Load(addr uint64) cache.AccessResult {
	c.instructions++
	r := c.mem.Load(addr)
	// L1-hit latency is hidden by the pipeline; deeper hits stall for the
	// differential latency, divided by the memory-parallelism factor
	// (precomputed per level in stallQ).
	c.stallQuarters += c.stallQ[r.Level]
	return r
}

// addRunHits accounts one batched run: every load retires one instruction
// and pays the per-level stall of wherever it hit, exactly as the same loads
// would through Load.
//
// On a staged hierarchy the run's L1 misses are still on their way down
// (RunHits.Lower): their instructions retire now, their stall when settle
// drains them. The published clock leaves that stall out, which keeps it a
// lower bound on every later reading.
func (c *CPU) addRunHits(rh cache.RunHits) {
	c.instructions += uint64(rh.Total())
	c.stallQuarters += c.runStall(rh)
	if c.progress != nil {
		c.progress.Store(c.progressBase + c.SettledCycles())
	}
}

// settle charges the stall of every load a staged hierarchy has handed below
// L1 since the last settle. runStall is linear in the level counts, so
// charging a run's stall in pieces, later, gives the same total; every read
// of the clock or the PMU settles first.
func (c *CPU) settle() { c.stallQuarters += c.runStall(c.mem.Drain()) }

// runStall converts a run's per-level hit counts into stall quarter-cycles.
func (c *CPU) runStall(rh cache.RunHits) uint64 {
	return uint64(rh.L2)*c.stallQ[cache.HitL2] +
		uint64(rh.L3)*c.stallQ[cache.HitL3] +
		uint64(rh.Mem)*c.stallQ[cache.HitMem]
}

// publishAhead publishes the clock the core will read once the part of a
// gathered run simulated so far (rh) is accounted. The run is still accounted
// in one piece when it ends, so Cycles reads the same whether or not the run
// was chunked for publication.
func (c *CPU) publishAhead(rh cache.RunHits) {
	c.progress.Store(c.progressBase + c.cyclesAt(c.instructions+uint64(rh.Total()), c.stallQuarters+c.runStall(rh)))
}

// SetProgress attaches (or, with nil, detaches) the cell this core publishes
// its clock to: after every batched load run, and every progressChunk loads
// inside a gathered one, the cell receives base plus the core's clock. The
// clock is monotone, so each published value is a lower bound on every later
// one — the property the lookahead morsel scheduler certifies assignments
// against. Publication observes the simulation and never alters it: chunking
// a gathered run is event-exact because LoadStream and LoadSel are defined
// as their per-element Load sequence.
func (c *CPU) SetProgress(cell *atomic.Uint64, base uint64) {
	c.progress, c.progressBase = cell, base
}

// CondBranch retires one conditional branch at the given site: one compare
// plus one jump instruction, plus the misprediction penalty when the
// predictor got it wrong. It returns the predictor outcome.
func (c *CPU) CondBranch(site int, taken bool) branch.Outcome {
	c.instructions += 2 // cmp + jcc
	c.brCond++
	var out branch.Outcome
	if c.sat != nil {
		out = c.sat.Observe(site, taken)
	} else {
		out = c.pred.Observe(site, taken)
	}
	mp := out.Mispredicted()
	if taken {
		c.brTaken++
		if mp {
			c.brMPTaken++
		}
	} else {
		c.brNotTaken++
		if mp {
			c.brMPNotTaken++
		}
	}
	if mp {
		c.stallQuarters += uint64(c.prof.BranchMissPenaltyCycles) * 4
	}
	return out
}

// LoadSeq performs n demand loads at start, start+stride, ... — a batch
// kernel streaming a column. Counter, cache, and stall effects are exactly
// those of n Load calls: the whole run is simulated by the hierarchy in one
// call, with further loads of a line counted as the L1 hits they are.
func (c *CPU) LoadSeq(start uint64, stride, n int) {
	c.addRunHits(c.mem.LoadRun(start, stride, n))
}

// LoadSel performs one demand load per selected row of a column at base with
// the given stride — a batch kernel gathering survivors. Effects are exactly
// those of per-row Load calls, simulated by the hierarchy in one run-batched
// call.
func (c *CPU) LoadSel(base uint64, stride int, rows []int32) {
	var rh cache.RunHits
	if c.progress != nil {
		for len(rows) > progressChunk {
			rh = rh.Plus(c.mem.LoadSel(base, stride, rows[:progressChunk]))
			c.publishAhead(rh)
			rows = rows[progressChunk:]
		}
	}
	c.addRunHits(rh.Plus(c.mem.LoadSel(base, stride, rows)))
}

// LoadAddrs performs one demand load per address, in order — the gather path
// of kernels whose address streams are data-dependent (join probes,
// hash-table touches). Effects are exactly those of per-element Load calls.
func (c *CPU) LoadAddrs(addrs []uint64) {
	var rh cache.RunHits
	if c.progress != nil {
		for len(addrs) > progressChunk {
			rh = rh.Plus(c.mem.LoadStream(addrs[:progressChunk]))
			c.publishAhead(rh)
			addrs = addrs[progressChunk:]
		}
	}
	c.addRunHits(rh.Plus(c.mem.LoadStream(addrs)))
}

// AddrBuf returns the CPU's reusable address-gather scratch, emptied, with
// capacity for at least n addresses. The returned slice is valid until the
// next AddrBuf call; batch kernels append the vector's data-dependent
// addresses to it and pass the result to LoadAddrs. It grows by doubling at
// least: n follows a vector's survivors, so a core would otherwise grow it
// at every new largest selection.
func (c *CPU) AddrBuf(n int) []uint64 {
	if cap(c.addrBuf) < n {
		c.addrBuf = make([]uint64, 0, max(n, 2*cap(c.addrBuf)))
	}
	return c.addrBuf[:0]
}

// KeyBuf is AddrBuf's companion for the key values the gathered addresses
// were computed from; valid until the next KeyBuf call.
func (c *CPU) KeyBuf(n int) []int64 {
	if cap(c.keyBuf) < n {
		c.keyBuf = make([]int64, 0, max(n, 2*cap(c.keyBuf)))
	}
	return c.keyBuf[:0]
}

// BitBuf returns the CPU's reusable scratch for a stream of n branch
// directions, one bit each (the layout CondBranchBits reads). Its contents
// are unspecified; it is valid until the next BitBuf call.
func (c *CPU) BitBuf(n int) []uint64 {
	words := (n + 63) >> 6
	if cap(c.bitBuf) < words {
		// At least a 128-byte sector: rewritten every vector, it must not
		// share a cache line with another core's.
		c.bitBuf = make([]uint64, max(words, 16))
	}
	return c.bitBuf[:words]
}

// CondBranchBits retires n conditional branches at the given site whose
// directions are the low n bits of the stream dirs: branch i is taken iff
// bit i%64 of dirs[i/64] is set, and bits above n are ignored. Counter and
// predictor effects are exactly those of n CondBranch calls in that order.
// The saturating predictors step their counter eight branches per table
// lookup (branch.Saturating.ObserveBits); any other predictor observes the
// branches one by one (branch.ObserveEach).
func (c *CPU) CondBranchBits(site int, dirs []uint64, n int) {
	if n <= 0 {
		return
	}
	var taken, mpTaken, mpNotTaken int
	if c.sat != nil {
		mpTaken, mpNotTaken = c.sat.ObserveBits(site, dirs, n)
	} else {
		mpTaken, mpNotTaken = branch.ObserveEach(c.pred, site, dirs, 0, n)
	}
	for _, w := range dirs[:n>>6] {
		taken += bits.OnesCount64(w)
	}
	if r := uint(n) & 63; r != 0 {
		taken += bits.OnesCount64(dirs[n>>6] << (64 - r))
	}
	c.instructions += 2 * uint64(n) // cmp + jcc each
	c.brCond += uint64(n)
	c.brTaken += uint64(taken)
	c.brNotTaken += uint64(n - taken)
	c.brMPTaken += uint64(mpTaken)
	c.brMPNotTaken += uint64(mpNotTaken)
	c.stallQuarters += uint64(mpTaken+mpNotTaken) * uint64(c.prof.BranchMissPenaltyCycles) * 4
}

// CondBranchN retires n identical conditional branches at the given site
// (the batch engine's loop back-edge, or a kernel whose comparison outcome is
// constant over the vector; outcomes that vary go through CondBranchBits).
// Counter and predictor effects are exactly those of calling CondBranch n
// times; with the concrete predictor models the misprediction count of a
// same-direction batch is computed in O(1) (saturating) or O(history)
// (gshare) instead of n predictor steps.
func (c *CPU) CondBranchN(site int, taken bool, n int) {
	if n <= 0 {
		return
	}
	var mp int
	switch {
	case c.sat != nil:
		mp = c.sat.ObserveN(site, taken, n)
	case c.gs != nil:
		mp = c.gs.ObserveN(site, taken, n)
	default:
		for i := 0; i < n; i++ {
			if c.pred.Observe(site, taken).Mispredicted() {
				mp++
			}
		}
	}
	c.instructions += 2 * uint64(n) // cmp + jcc each
	c.brCond += uint64(n)
	if taken {
		c.brTaken += uint64(n)
		c.brMPTaken += uint64(mp)
	} else {
		c.brNotTaken += uint64(n)
		c.brMPNotTaken += uint64(mp)
	}
	c.stallQuarters += uint64(mp) * uint64(c.prof.BranchMissPenaltyCycles) * 4
}

// SiteIndependentPredictor reports whether the branch predictor keeps fully
// independent per-site state (the saturating-counter models): observations at
// different sites then commute — each site's outcome stream and final state
// depend only on that site's own observation subsequence, and every PMU
// effect of a branch is an order-independent sum. Callers may batch a site's
// same-direction branches (e.g. a row loop's back-edge) out of line with
// other sites' without changing any counter. Global-history predictors
// (gshare) return false: their sites couple through the history register, so
// program order must be preserved.
func (c *CPU) SiteIndependentPredictor() bool { return c.sat != nil }

// Exec retires n plain ALU instructions.
func (c *CPU) Exec(n int) {
	if n > 0 {
		c.instructions += uint64(n)
	}
}

// ResetPredictor clears all branch-predictor state, emulating a JIT
// recompilation of the query loop (new branch addresses).
func (c *CPU) ResetPredictor() { c.pred.Reset() }

// FlushCaches empties the cache hierarchy (counters are preserved).
func (c *CPU) FlushCaches() { c.mem.Flush() }

// Cold returns the core to its constructed state, which is what every query
// starts from: caches, streamer and line memo empty, predictor untrained, and
// a new clock epoch. The clock keeps its value (timelines of successive runs
// stay monotone) and the PMU counters stay cumulative, but the fraction of a
// cycle the issue slots and stalls so far add up to is dropped, so every
// cycle delta read after Cold depends on what ran after it and on nothing
// before. On a new core Cold changes nothing.
func (c *CPU) Cold() {
	c.mem.Flush()
	c.pred.Reset()
	c.epochCycles = c.Cycles()
	c.epochInstr, c.epochStallQ = c.instructions, c.stallQuarters
}

// Cycles returns elapsed core cycles: retired instructions spread over the
// issue width plus accumulated stall time. A stored run's storage-tier stall
// is not among them: core.Run adds its read-ahead stream's shift to the
// cores' clocks when the run completes, so a tier perturbs neither
// scheduling decisions nor any counter of the run.
func (c *CPU) Cycles() uint64 {
	c.settle()
	return c.SettledCycles()
}

// SettledCycles is Cycles without the stall of the loads a staged hierarchy
// has handed below L1 and not yet simulated: a lower bound on Cycles, equal
// to it once they are settled. It waits for nothing.
func (c *CPU) SettledCycles() uint64 { return c.cyclesAt(c.instructions, c.stallQuarters) }

// cyclesAt is the cycle clock at the given retired-instruction and
// stall-quarter totals: whole cycles since the epoch Cold opened, on top of
// the clock at that moment.
func (c *CPU) cyclesAt(instructions, stallQuarters uint64) uint64 {
	issueQuarters := (instructions - c.epochInstr) * 4 / uint64(c.prof.IssueWidth)
	return c.epochCycles + (issueQuarters+stallQuarters-c.epochStallQ)/4
}

// MillisOf converts a cycle count to milliseconds at the profile's clock.
func (c *CPU) MillisOf(cycles uint64) float64 {
	return float64(cycles) / (c.prof.ClockGHz * 1e6)
}

// Sample snapshots all PMU events, including the derived fixed counters.
func (c *CPU) Sample() pmu.Sample {
	var s pmu.Sample
	s[pmu.BrCond] = c.brCond
	s[pmu.BrTaken] = c.brTaken
	s[pmu.BrNotTaken] = c.brNotTaken
	s[pmu.BrMPTaken] = c.brMPTaken
	s[pmu.BrMPNotTaken] = c.brMPNotTaken
	s[pmu.BrMP] = c.brMPTaken + c.brMPNotTaken
	hc := c.mem.Counters()
	s[pmu.L1Access] = hc.L1.Accesses
	s[pmu.L1Miss] = hc.L1.Misses
	s[pmu.L2Access] = hc.L2.Accesses
	s[pmu.L2Miss] = hc.L2.Misses
	s[pmu.L3DemandAccess] = hc.L3.Accesses
	s[pmu.L3PrefetchAccess] = hc.L3PrefetchAccesses
	s[pmu.L3Access] = hc.L3TotalAccesses()
	s[pmu.L3Miss] = hc.L3.Misses
	s[pmu.L3Hit] = hc.L3.Hits
	s[pmu.MemAccess] = hc.MemAccesses
	s[pmu.Instructions] = c.instructions
	s[pmu.Cycles] = c.Cycles()
	return s
}
