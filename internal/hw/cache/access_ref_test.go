package cache

// The access-major simulator this package shipped until the level-major core
// (Hierarchy.loadLines, Level.run, StreamPrefetcher.observe) replaced it,
// kept as the oracle for that core: the bodies of Load, memoHit, loadLine,
// loadRunFirst, LoadRun, LoadSel, LoadStream and StreamPrefetcher.Observe are
// the old ones verbatim, re-homed on refHierarchy (which carries the line
// memo the production Hierarchy no longer has) and turned from methods into
// ref-prefixed ones (refObserve returns a fresh slice where Observe reused a
// buffer of the prefetcher's). A hierarchy driven through refHierarchy must
// only ever be driven through it: the old Observe does not keep the stream
// signatures.

type refHierarchy struct {
	cfg                HierarchyConfig
	l1, l2, l3         *Level
	pf                 *StreamPrefetcher
	lineShift          uint
	l3PrefetchAccesses uint64
	memAccesses        uint64
	lastLine           uint64
	lastSlot           int
	memoLines          [memoEntries]uint64
	memoSlots          [memoEntries]int
	st                 *StorageSet
}

// newRefHierarchy takes its levels and streamer from a Hierarchy built for
// cfg, which is then dropped.
func newRefHierarchy(cfg HierarchyConfig) (*refHierarchy, error) {
	h, err := NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	return &refHierarchy{cfg: cfg, l1: h.l1, l2: h.lo.l2, l3: h.lo.l3, pf: h.lo.pf, lineShift: h.lineShift}, nil
}

func (h *refHierarchy) AttachStorage(st *StorageSet) { h.st = st }

func (h *refHierarchy) Counters() Counters {
	return Counters{
		L1:                 h.l1.Stats(),
		L2:                 h.l2.Stats(),
		L3:                 h.l3.Stats(),
		L3PrefetchAccesses: h.l3PrefetchAccesses,
		MemAccesses:        h.memAccesses,
	}
}

// state is what sameState compares.
func (h *refHierarchy) state() hierState {
	return hierState{h.Counters(), [3]*Level{h.l1, h.l2, h.l3}, h.pf, h.st}
}

func (h *refHierarchy) Load(addr uint64) AccessResult {
	ln := (addr >> h.lineShift) + 1
	mi := ln & (memoEntries - 1)
	if h.memoHit(ln, mi) {
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	}
	res := h.loadLine(ln)
	h.lastLine, h.lastSlot = ln, h.l1.mruSlot(ln)
	h.memoLines[mi], h.memoSlots[mi] = ln, h.lastSlot
	return res
}

func (h *refHierarchy) memoHit(ln, mi uint64) bool {
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
	h.lastLine, h.lastSlot = ln, idx
	return true
}

func (h *refHierarchy) loadLine(ln uint64) AccessResult {
	if h.l1.LookupLine(ln) {
		return AccessResult{Level: HitL1, LatencyCycles: h.cfg.L1.LatencyCycles}
	}
	for _, pl := range refObserve(h.pf, ln-1) {
		// Each prefetch request occupies an L3 access slot whether or not
		// the line is already present somewhere.
		h.l3PrefetchAccesses++
		pln := pl + 1
		if !h.l3.ContainsLine(pln) {
			h.memAccesses++
			if h.st != nil {
				h.st.Touch((pln - 1) << h.lineShift)
			}
			h.l3.insertLineAbsent(pln)
			h.l3.stats.PrefetchInserts++
		}
		h.l2.InsertLine(pln, true)
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
		h.st.Touch((ln - 1) << h.lineShift)
	}
	h.l3.insertLineAbsent(ln)
	h.l2.insertLineAbsent(ln)
	h.l1.insertLineAbsent(ln)
	return AccessResult{Level: HitMem, LatencyCycles: h.cfg.MemLatencyCycles}
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

func (h *refHierarchy) loadRunFirst(ln uint64, rh *RunHits) {
	mi := ln & (memoEntries - 1)
	if h.memoHit(ln, mi) {
		rh.L1++
		return
	}
	rh.add(h.loadLine(ln).Level)
	h.lastLine, h.lastSlot = ln, h.l1.mruSlot(ln)
	h.memoLines[mi], h.memoSlots[mi] = ln, h.lastSlot
}

func (h *refHierarchy) LoadRun(start uint64, stride, n int) RunHits {
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

func (h *refHierarchy) LoadSel(base uint64, stride int, rows []int32) RunHits {
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

func (h *refHierarchy) LoadStream(addrs []uint64) RunHits {
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

func (h *refHierarchy) Flush() {
	h.l1.Flush()
	h.l2.Flush()
	h.l3.Flush()
	h.pf.Reset()
	h.lastLine = 0
	h.memoLines = [memoEntries]uint64{}
}

// insertLineAbsent is InsertLine for a line the caller has just proven absent
// (its own Lookup missed with no intervening mutation of this level) — the
// demand-fill path, which skips the present-already probe entirely.
func (l *Level) insertLineAbsent(ln uint64) {
	set := int(ln & l.setMask)
	l.fillLRU(set, set*l.ways, ln)
}

// touchSlotN is touchLineSlotN for a slot the caller just demand-loaded in
// the same batched run (validity established, line id known).
func (l *Level) touchSlotN(idx int, ln uint64, n int) {
	l.stats.Accesses += uint64(n)
	l.stats.Hits += uint64(n)
	set := int(ln & l.setMask)
	l.moveToHead(set, set*l.ways, idx-set*l.ways)
}

// refObserve is the old StreamPrefetcher.Observe. Its issue loop never ends
// for a line within Degree of 2^64; callers stay below that.
func refObserve(p *StreamPrefetcher, line uint64) []uint64 {
	if !p.linked {
		p.link()
	}
	window := uint64(p.Window)
	bestIdx := -1
	for i := range p.lastLine {
		// line continues the stream when 1 <= line-lastLine <= window;
		// unsigned wrap makes the two-sided check one compare.
		if line-p.lastLine[i]-1 < window {
			bestIdx = i
			break
		}
	}
	if bestIdx < 0 {
		victim := p.prev[p.head]
		p.lastLine[victim] = line
		p.issuedUpTo[victim] = line
		p.confidence[victim] = 0
		p.head = victim // rotate: tail becomes head, rest keep order
		return nil
	}
	p.confidence[bestIdx]++
	p.lastLine[bestIdx] = line
	p.touch(uint8(bestIdx))
	if int(p.confidence[bestIdx]) < p.MinConfidence {
		return nil
	}
	// Fetch up to Degree lines ahead of the demand line, skipping anything
	// this stream already issued.
	from := line + 1
	if p.issuedUpTo[bestIdx] >= from {
		from = p.issuedUpTo[bestIdx] + 1
	}
	to := line + uint64(p.Degree)
	if from > to {
		return nil
	}
	var out []uint64
	for l := from; l <= to; l++ {
		out = append(out, l)
	}
	p.issuedUpTo[bestIdx] = to
	p.Issued += uint64(len(out))
	return out
}
