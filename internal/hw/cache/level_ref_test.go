package cache

import (
	"encoding/binary"
	"math/bits"
)

// The per-access API Level had while the hierarchy walked it one address at
// a time — Lookup, Insert, Contains, the same-line touch and the probe and
// fill under them — kept as the definition Level.run is tested against: the
// access-major reference (access_ref_test.go) is built on it, and the level
// tests drive it directly. The bodies are the old ones; what is gone is
// lastSlot, the slot of the last hit or insert, which only the old
// hierarchy's line memo read (the reference asks mruSlot instead: a line
// just loaded is the MRU of its set).

// line converts a byte address to a line id offset by 1 so that 0 stays an
// "empty slot" sentinel in the tag arrays.
func (l *Level) line(addr uint64) uint64 { return addr/uint64(l.cfg.LineSize) + 1 }

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
	zeros := zeroBytes(word ^ (swarOnes * uint64(h)))
	for zeros != 0 {
		w := bits.TrailingZeros64(zeros) >> 3
		if tags[w] == ln {
			return w
		}
		zeros &= zeros - 1
	}
	return -1
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
		return true
	}
	l.stats.Misses++
	return false
}

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
	return true
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
		return
	}
	l.fillLRU(set, base, ln)
	if prefetch {
		l.stats.PrefetchInserts++
	}
}

// fillLRU installs ln in the set's LRU way — the ring tail, which is an
// empty slot whenever the set has one (see linkRings) — and promotes it to
// MRU by rotating the head onto it. O(1), no scan.
func (l *Level) fillLRU(set, base int, ln uint64) {
	victim := l.prev[base+int(l.heads[set])]
	l.tags[base+int(victim)] = ln
	l.ptags[base+int(victim)] = uint8(ln >> l.pshift)
	l.heads[set] = victim
}
