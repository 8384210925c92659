// Package cache implements a software model of a multi-level CPU data-cache
// hierarchy: set-associative LRU levels, a sequential stream prefetcher, and
// per-level access/hit/miss accounting.
//
// The paper's cache cost model (§3.1) reasons about *L3 accesses*, defined as
// demand requests that miss L2 plus prefetcher requests, because that event
// count is independent of out-of-order execution. The hierarchy here produces
// exactly that counter from the address stream of the simulated query, which
// is what the progressive optimizer samples at vector boundaries.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// Config describes one cache level.
type Config struct {
	// Name is a short label such as "L1" (for reports and errors).
	Name string
	// SizeBytes is the total capacity of the level.
	SizeBytes int
	// LineSize is the cache-line size in bytes; it must be a power of two and
	// identical across all levels of a hierarchy.
	LineSize int
	// Ways is the set associativity; it must divide SizeBytes/LineSize.
	Ways int
	// LatencyCycles is the load-to-use latency of a hit in this level.
	LatencyCycles int
}

// Lines returns the capacity of the level in cache lines (the paper's "#_i").
func (c Config) Lines() int { return c.SizeBytes / c.LineSize }

func (c Config) validate() error {
	if c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive size %d", c.Name, c.SizeBytes)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a positive power of two", c.Name, c.LineSize)
	}
	lines := c.SizeBytes / c.LineSize
	if lines*c.LineSize != c.SizeBytes || lines == 0 {
		return fmt.Errorf("cache %s: size %d is not a positive multiple of line size %d", c.Name, c.SizeBytes, c.LineSize)
	}
	if c.Ways <= 0 || lines%c.Ways != 0 {
		return fmt.Errorf("cache %s: %d ways does not divide %d lines", c.Name, c.Ways, lines)
	}
	if c.Ways > 1<<16 {
		return fmt.Errorf("cache %s: %d ways exceeds the supported maximum of %d", c.Name, c.Ways, 1<<16)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	if c.LatencyCycles < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// Stats accumulates the per-level event counts the PMU exposes.
type Stats struct {
	// Accesses counts lookups (demand only; prefetch inserts are separate).
	Accesses uint64
	// Hits counts lookups that found the line.
	Hits uint64
	// Misses counts lookups that did not find the line.
	Misses uint64
	// PrefetchInserts counts lines installed by the prefetcher.
	PrefetchInserts uint64
}

// Level is one set-associative LRU cache level. The tag array is kept apart
// from the recency links so a set probe — the hot path — scans a contiguous
// run of bare uint64 tags, half the memory of an interleaved record.
type Level struct {
	cfg      Config
	setMask  uint64
	setShift uint
	// pshift is the set-index bit count: ln >> pshift strips the bits every
	// tag of a set shares, so the byte below is the partial tag (see findWay).
	pshift uint
	ways   int
	tags   []uint64 // sets*ways entries, way-major; line id + 1, 0 = empty
	// ptags holds one partial tag per way — the low byte of the line id above
	// the set index — maintained on every tags write. A set's ptags are a
	// contiguous byte run, so an 8- or 16-way probe filters candidates with
	// one or two word-sized SWAR compares before touching full tags.
	ptags []uint8
	// prev/next thread each set's ways into a circular list ordered by
	// recency: the set's head way is the MRU, head.prev is the LRU. Recency
	// is therefore *positional* — there is no timestamp counter anywhere in
	// the level, so LRU state cannot overflow in any run, of any length, by
	// construction (the overflow-safety proof for what used to be a uint64
	// LRU clock). Values are way indices within the set; both slices are
	// indexed like tags (set base + way).
	prev, next []uint16
	heads      []uint16 // per-set MRU way index
	stats      Stats
	// lastSlot is the tag-array index touched by the most recent Lookup hit
	// or Insert, consumed by the hierarchy's same-line fast path.
	lastSlot int

	// Pads the struct to a multiple of 128 bytes. Levels are written on every
	// simulated access (stats, lastSlot) and one core's levels are allocated
	// next to another's, so an unpadded 240-byte Level shares a cache line
	// with its neighbour's cfg/setMask — false sharing once simulated cores
	// run on different host threads (see DESIGN.md, "False-sharing layout
	// rule"; pinned by TestLayoutNoFalseSharing).
	_ [16]byte
}

// NewLevel builds a cache level from its configuration.
func NewLevel(cfg Config) (*Level, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lines := cfg.Lines()
	sets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	l := &Level{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		setShift: shift,
		pshift:   uint(bits.TrailingZeros64(uint64(sets))),
		ways:     cfg.Ways,
		tags:     sectorSlice[uint64](lines),
		ptags:    sectorSlice[uint8](lines),
		prev:     sectorSlice[uint16](lines),
		next:     sectorSlice[uint16](lines),
		heads:    sectorSlice[uint16](sets),
	}
	l.linkRings()
	return l, nil
}

// sectorSlice returns a zeroed []T of length n whose backing array fills
// whole 128-byte sectors. The scaled L1 has four sets, so its recency arrays
// are a few bytes each; sized exactly, the allocator would pack several
// cores' arrays — written on every simulated access — into one cache line.
func sectorSlice[T any](n int) []T {
	per := 128 / int(unsafe.Sizeof(*new(T)))
	return make([]T, n, (n+per-1)/per*per)
}

// linkRings threads every set's ways into the initial recency ring
// w0 → w1 → ... → w(ways-1) with w0 as head. Empty slots are never touched,
// so they sink behind every occupied way and the ring tail is an empty slot
// for as long as the set has one — matching a fill policy that never evicts
// while an empty way exists.
func (l *Level) linkRings() {
	w := l.ways
	for s := 0; s < len(l.heads); s++ {
		base := s * w
		for i := 0; i < w; i++ {
			l.prev[base+i] = uint16((i - 1 + w) % w)
			l.next[base+i] = uint16((i + 1) % w)
		}
		l.heads[s] = 0
	}
}

// Config returns the level's configuration.
func (l *Level) Config() Config { return l.cfg }

// Stats returns a copy of the level's counters.
func (l *Level) Stats() Stats { return l.stats }

// line converts a byte address to a line id offset by 1 so that 0 stays an
// "empty slot" sentinel in the tag arrays.
func (l *Level) line(addr uint64) uint64 { return (addr >> l.setShift) + 1 }

// swarOnes/swarHighs are the byte-broadcast constants of the SWAR
// has-zero-byte trick.
const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// findWay scans the set at tag base for ln and returns its way index or -1.
//
// The scan is two-tier for the shipped associativities (8- and 16-way): the
// set's one-byte partial tags are compared eight ways at a time with one
// word-sized SWAR operation, and only candidate ways are verified against
// the full tag. A zero byte in word^broadcast(h) always flags its position
// (no false negatives), while borrow artifacts and genuine hash collisions
// only flag spurious candidates that the full-tag compare rejects — so the
// result is exactly the linear scan's, but a probe of a 16-way set that
// misses touches ~2 words instead of 16 tags (with an 8-bit partial tag,
// ~94% of random 16-way misses have no candidate at all). The generic loop
// covers other (test-only) geometries.
func (l *Level) findWay(base int, ln uint64) int {
	h := uint8(ln >> l.pshift)
	switch l.ways {
	case 16:
		if w := matchWord(binary.LittleEndian.Uint64(l.ptags[base:base+8]), h, l.tags[base:base+8], ln); w >= 0 {
			return w
		}
		if w := matchWord(binary.LittleEndian.Uint64(l.ptags[base+8:base+16]), h, l.tags[base+8:base+16], ln); w >= 0 {
			return 8 + w
		}
		return -1
	case 8:
		return matchWord(binary.LittleEndian.Uint64(l.ptags[base:base+8]), h, l.tags[base:base+8], ln)
	default:
		tags := l.tags[base : base+l.ways]
		for w := range tags {
			if tags[w] == ln {
				return w
			}
		}
		return -1
	}
}

// matchWord locates ln among eight ways whose partial tags are packed
// little-endian in word: byte positions equal to h become zero bytes of
// word XOR broadcast(h), are flagged low-to-high by the has-zero-byte trick,
// and each flagged way is verified against the full tag.
func matchWord(word uint64, h uint8, tags []uint64, ln uint64) int {
	x := word ^ (swarOnes * uint64(h))
	zeros := (x - swarOnes) &^ x & swarHighs
	for zeros != 0 {
		w := bits.TrailingZeros64(zeros) >> 3
		if tags[w] == ln {
			return w
		}
		zeros &= zeros - 1
	}
	return -1
}

// moveToHead makes way w the MRU of the set rooted at base. O(1): a no-op
// when w is already the head (the overwhelmingly common case for repeated
// touches, kept small enough to inline), else unlink-and-relink.
func (l *Level) moveToHead(set int, base, w int) {
	if int(l.heads[set]) != w {
		l.moveToHeadSlow(set, base, w)
	}
}

func (l *Level) moveToHeadSlow(set int, base, w int) {
	head := int(l.heads[set])
	if int(l.prev[base+head]) == w {
		// w is the ring predecessor of head: rotating the head makes w MRU
		// and keeps every other relative position.
		l.heads[set] = uint16(w)
		return
	}
	// Unlink w ...
	pw, nw := l.prev[base+w], l.next[base+w]
	l.next[base+int(pw)] = nw
	l.prev[base+int(nw)] = pw
	// ... and splice it in before head (between head.prev and head).
	tail := l.prev[base+head]
	l.prev[base+w] = tail
	l.next[base+w] = uint16(head)
	l.next[base+int(tail)] = uint16(w)
	l.prev[base+head] = uint16(w)
	l.heads[set] = uint16(w)
}

// Lookup probes the level for the line containing addr, updating LRU state
// and counters. It reports whether the line was present and does NOT insert
// on a miss; the hierarchy decides fills.
func (l *Level) Lookup(addr uint64) bool {
	return l.LookupLine(l.line(addr))
}

// LookupLine is Lookup on a precomputed line id (the hierarchy computes the
// id once per access and probes every level with it — all levels of a
// hierarchy share one line size).
func (l *Level) LookupLine(ln uint64) bool {
	set := int(ln & l.setMask)
	base := set * l.ways
	l.stats.Accesses++
	if w := l.findWay(base, ln); w >= 0 {
		l.moveToHead(set, base, w)
		l.stats.Hits++
		l.lastSlot = base + w
		return true
	}
	l.stats.Misses++
	return false
}

// LastSlot returns the tag-array index touched by the most recent Lookup hit
// or Insert.
func (l *Level) LastSlot() int { return l.lastSlot }

// TouchLine re-references line ln known (from the immediately preceding
// access) to reside at tag slot idx, with counter and LRU effects identical
// to a hit Lookup: one access, one hit, promotion to MRU. It reports false —
// leaving all state untouched — if the slot no longer holds the line, in
// which case the caller must fall back to Lookup.
func (l *Level) TouchLine(idx int, ln uint64) bool {
	return l.TouchLineN(idx, ln, 1)
}

// TouchLineN is TouchLine repeated n times in one step. Because no other
// access intervenes, n sequential hit Lookups of the same line leave exactly
// this state: n accesses and n hits counted and the line at MRU.
func (l *Level) TouchLineN(idx int, ln uint64, n int) bool {
	if n <= 0 || idx < 0 || idx >= len(l.tags) {
		return false
	}
	return l.touchLineSlotN(idx, ln, n)
}

// touchLineSlotN records n hit-Lookup-equivalent touches of line ln at slot
// idx, validating only that the slot still holds the line (the index is known
// in range). The set is derived from the line id — the same computation every
// probe uses — so the touch fast path carries no division or scan.
func (l *Level) touchLineSlotN(idx int, ln uint64, n int) bool {
	if l.tags[idx] != ln {
		return false
	}
	l.stats.Accesses += uint64(n)
	l.stats.Hits += uint64(n)
	set := int(ln & l.setMask)
	l.moveToHead(set, set*l.ways, idx-set*l.ways)
	l.lastSlot = idx
	return true
}

// touchSlotN is touchLineSlotN for a slot the caller just demand-loaded in
// the same batched run (validity established, line id known).
func (l *Level) touchSlotN(idx int, ln uint64, n int) {
	l.stats.Accesses += uint64(n)
	l.stats.Hits += uint64(n)
	set := int(ln & l.setMask)
	l.moveToHead(set, set*l.ways, idx-set*l.ways)
	l.lastSlot = idx
}

// Contains reports whether the line holding addr is present, without touching
// counters or LRU state (used by the prefetcher to avoid duplicate inserts).
func (l *Level) Contains(addr uint64) bool {
	return l.ContainsLine(l.line(addr))
}

// ContainsLine is Contains on a precomputed line id.
func (l *Level) ContainsLine(ln uint64) bool {
	return l.findWay(int(ln&l.setMask)*l.ways, ln) >= 0
}

// Insert installs the line containing addr, evicting the LRU way of its set
// if needed. prefetch marks the insert as prefetcher-initiated for counting.
func (l *Level) Insert(addr uint64, prefetch bool) {
	l.InsertLine(l.line(addr), prefetch)
}

// InsertLine is Insert on a precomputed line id.
func (l *Level) InsertLine(ln uint64, prefetch bool) {
	set := int(ln & l.setMask)
	base := set * l.ways
	if w := l.findWay(base, ln); w >= 0 {
		// Already present; refresh to MRU.
		l.moveToHead(set, base, w)
		l.lastSlot = base + w
		return
	}
	l.fillLRU(set, base, ln)
	if prefetch {
		l.stats.PrefetchInserts++
	}
}

// insertLineAbsent is InsertLine for a line the caller has just proven absent
// (its own Lookup missed with no intervening mutation of this level) — the
// demand-fill path, which skips the present-already probe entirely.
func (l *Level) insertLineAbsent(ln uint64) {
	set := int(ln & l.setMask)
	l.fillLRU(set, set*l.ways, ln)
}

// fillLRU installs ln in the set's LRU way — the ring tail, which is an
// empty slot whenever the set has one (see linkRings) — and promotes it to
// MRU by rotating the head onto it. O(1), no scan.
func (l *Level) fillLRU(set, base int, ln uint64) {
	victim := l.prev[base+int(l.heads[set])]
	l.tags[base+int(victim)] = ln
	l.ptags[base+int(victim)] = uint8(ln >> l.pshift)
	l.heads[set] = victim
	l.lastSlot = base + int(victim)
}

// Flush empties the level and leaves counters intact. Ring order is not
// reset: with every slot empty, recency among empties is irrelevant (fills
// take the tail, which cycles through the empty ways in ring order).
func (l *Level) Flush() {
	for i := range l.tags {
		l.tags[i] = 0
	}
	for i := range l.ptags {
		l.ptags[i] = 0
	}
}

// ResetStats zeroes the level's counters.
func (l *Level) ResetStats() { l.stats = Stats{} }
