package exec

import (
	"progopt/internal/hw/cache"
	"progopt/internal/trace"
)

// StorageScan attaches a compiled storage-scan plan to one engine core. It
// carries two independent capabilities of a stored (PCOL v2) driving table:
//
//   - Skip is the zone-map verdict per global vector index: true means the
//     compiled predicates prove no row of the vector can qualify, so the
//     vector is answered from metadata alone — no load, instruction, or
//     branch is simulated. Consulting the zone maps is not charged: they are
//     a few words per block, read at plan time.
//   - Set is this core's private view of the storage tier below DRAM (see
//     cache.StorageSet), attached to the core's hierarchy while the core runs
//     the query so every access that reaches memory prices block transfers.
//
// Both fields may be nil/empty independently. The Skip slice is shared
// read-only across cores of one run; Set must be per-core (residency and
// counters are mutable simulation state). A query's views are part of its
// core.Spec (Storage, one per pool core), and core.Run owns them: it attaches
// them on every step, colds them with their cores, and adds the largest
// view's stall cycles to the run's Cycles.
type StorageScan struct {
	Skip []bool
	Set  *cache.StorageSet
}

// SetStorage attaches (or, with nil, detaches) a storage-scan plan, and the
// plan's tier view to the core's cache hierarchy. core.Run owns the
// lifecycle, as it does the sort collectors': each step attaches the query's
// views to the cores it runs on and detaches them after. Attaching allocates
// nothing, traced or not: the tier observer is built once, by SetTrace.
func (e *Engine) SetStorage(s *StorageScan) {
	if old := e.stor; old != nil && old.Set != nil {
		old.Set.SetObserver(nil)
	}
	e.stor = s
	if s == nil {
		e.cpu.Hierarchy().AttachStorage(nil)
		return
	}
	e.cpu.Hierarchy().AttachStorage(s.Set)
	if s.Set != nil {
		s.Set.SetObserver(e.storObs)
	}
}

// storageObserver returns the observer that records the attached tier view's
// fetches and evictions on track tr, stamped with this core's simulated clock:
// events land on the track of whichever core caused the traffic, so per-track
// order stays single-writer and deterministic.
func (e *Engine) storageObserver(tr *trace.Track) cache.StorageObserver {
	c := e.cpu
	return func(kind cache.StorageEventKind, block int, bytes, stall uint64) {
		switch kind {
		case cache.StorageFetch:
			tr.Instant("tier-fetch", c.Cycles(),
				trace.Int("block", block), trace.Uint64("bytes", bytes), trace.Uint64("stall", stall))
		case cache.StorageEvict:
			tr.Instant("tier-evict", c.Cycles(), trace.Int("block", block))
		}
	}
}

// skipVector reports whether [lo, hi) is a vector the attached storage plan
// proves empty. Skip verdicts are computed for the engine's vector geometry,
// so only exactly-aligned vector ranges are eligible — an arbitrary row
// range falls back to full evaluation.
func (e *Engine) skipVector(lo, hi int) bool {
	s := e.stor
	if s == nil || len(s.Skip) == 0 {
		return false
	}
	if lo%e.vectorSize != 0 || hi-lo > e.vectorSize {
		return false
	}
	v := lo / e.vectorSize
	return v < len(s.Skip) && s.Skip[v]
}
