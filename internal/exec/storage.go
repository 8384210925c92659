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
//     cache.StorageSet), attached to the core's hierarchy for the duration
//     of a run so every access that reaches memory prices block transfers.
//
// Both fields may be nil/empty independently. The Skip slice is shared
// read-only across cores of one run; Set must be per-core (residency and
// counters are mutable simulation state).
type StorageScan struct {
	Skip []bool
	Set  *cache.StorageSet
}

// SetStorage attaches (or, with nil, detaches) a storage-scan plan. The
// caller owns the lifecycle, mirroring SetSortRun: attach per run, detach
// after the barrier. Attaching also installs the plan's tier view on the
// core's cache hierarchy.
func (e *Engine) SetStorage(s *StorageScan) {
	if old := e.stor; old != nil && old.Set != nil {
		old.Set.SetObserver(nil)
	}
	e.stor = s
	if s != nil {
		e.cpu.Hierarchy().AttachStorage(s.Set)
	} else {
		e.cpu.Hierarchy().AttachStorage(nil)
	}
	e.wireStorageObserver()
}

// wireStorageObserver connects the attached tier view's fetch/evict stream to
// this core's event track, stamping events with the core's simulated clock.
// Events land on the track of whichever core caused the traffic, so per-track
// order stays single-writer and deterministic. Called from both SetStorage
// and SetTrace — attach order does not matter.
func (e *Engine) wireStorageObserver() {
	s := e.stor
	if s == nil || s.Set == nil {
		return
	}
	if e.tr == nil {
		s.Set.SetObserver(nil)
		return
	}
	tr, c := e.tr, e.cpu
	s.Set.SetObserver(func(kind cache.StorageEventKind, block int, bytes, stall uint64) {
		switch kind {
		case cache.StorageFetch:
			tr.Instant("tier-fetch", c.Cycles(),
				trace.Int("block", block), trace.Uint64("bytes", bytes), trace.Uint64("stall", stall))
		case cache.StorageEvict:
			tr.Instant("tier-evict", c.Cycles(), trace.Int("block", block))
		}
	})
}

// Storage returns the attached storage-scan plan, or nil.
func (e *Engine) Storage() *StorageScan { return e.stor }

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
