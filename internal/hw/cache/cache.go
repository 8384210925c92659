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
	cfg     Config
	setMask uint64
	// pshift is the set-index bit count: ln >> pshift strips the bits every
	// tag of a set shares, so the byte below is the partial tag (see run).
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

	// Pads the struct to a multiple of 128 bytes. Levels are written on every
	// chunk of simulated accesses (stats) and one core's levels are allocated
	// next to another's, so an unpadded 224-byte Level shares a cache line
	// with its neighbour's cfg/setMask — false sharing once simulated cores
	// run on different host threads (see DESIGN.md, "False-sharing layout
	// rule"; pinned by TestLayoutNoFalseSharing).
	_ [32]byte
}

// NewLevel builds a cache level from its configuration.
func NewLevel(cfg Config) (*Level, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lines := cfg.Lines()
	sets := lines / cfg.Ways
	l := &Level{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		pshift:  uint(bits.TrailingZeros64(uint64(sets))),
		ways:    cfg.Ways,
		tags:    sectorSlice[uint64](lines),
		ptags:   sectorSlice[uint8](lines),
		prev:    sectorSlice[uint16](lines),
		next:    sectorSlice[uint16](lines),
		heads:   sectorSlice[uint16](sets),
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

// Stats returns a copy of the level's counters.
func (l *Level) Stats() Stats { return l.stats }

// swarOnes/swarHighs are the byte-broadcast constants of the SWAR
// has-zero-byte trick.
const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// zeroBytes returns the high bit of every zero byte of x (and possibly, above
// a zero byte, of a byte that is not zero: callers verify what it flags).
func zeroBytes(x uint64) uint64 { return (x - swarOnes) &^ x & swarHighs }

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

// mruSlot returns the tag slot of the most recently used way of ln's set —
// where ln itself sits right after it was loaded.
func (l *Level) mruSlot(ln uint64) int {
	set := int(ln & l.setMask)
	return set*l.ways + int(l.heads[set])
}

// prefetchOp marks a line id in a level's op stream as a streamer request;
// an unmarked id is a demand load. Line ids are below 2^58, so the bit is free.
const prefetchOp = 1 << 63

// run applies a chunk of the level's op stream, in order, and compacts ops in
// place to the ops the level below must see, which it returns.
//
// A demand load is a lookup followed, on a miss, by the fill: it is counted,
// a hit moves to MRU and stops here, a miss takes the set's LRU way and goes
// on down. A streamer request is not counted as an access. In L2 it is an
// insert (present: refresh to MRU; absent: fill, one PrefetchInsert) and goes
// on down either way, because the request occupies an L3 slot whatever L2
// holds. In the last level it is contains-else-insert — a present line is
// left exactly as it is — and, like a demand miss there, goes on (to memory)
// only when the line was absent.
//
// The level's slices, mask and shift stay in locals for the whole chunk and
// nothing on the common paths is a call, so a pass is one loop. The probe is
// two-tier for the shipped associativities (8- and 16-way): the set's
// one-byte partial tags are compared eight ways at a time with one word-sized
// SWAR operation, and only candidate ways are verified against the full tag.
// A zero byte in word^broadcast(h) always flags its position (no false
// negatives), while borrow artifacts and genuine hash collisions only flag
// spurious candidates that the full-tag compare rejects — so the result is
// exactly a linear scan's, but a probe of a 16-way set that misses touches
// two words instead of 16 tags (with an 8-bit partial tag, ~94% of random
// 16-way misses have no candidate at all). Other (test-only) geometries scan
// the tags. level_ref_test.go holds the same semantics one access at a time.
func (l *Level) run(ops []uint64, last bool) []uint64 {
	// One length for the four per-way arrays lets one bounds check cover an
	// index into all of them.
	tags := l.tags
	ptags, prev, next, heads := l.ptags[:len(tags)], l.prev[:len(tags)], l.next[:len(tags)], l.heads
	mask, pshift, ways := l.setMask, l.pshift, l.ways
	n, hits, requests, inserts := 0, 0, 0, 0
	for _, op := range ops {
		ln := op &^ prefetchOp
		set := int(ln & mask)
		base := set * ways
		h := uint8(ln >> pshift)
		// The candidates of both halves of a 16-way set are gathered into
		// one word (bit 8i: way i, bit 8i+1: way 8+i), so a hit anywhere in
		// the set is one pass of one loop, with no branch on which half.
		w := -1
		var cand uint64
		bh := swarOnes * uint64(h)
		switch ways {
		case 8:
			cand = zeroBytes(binary.LittleEndian.Uint64(ptags[base:base+8])^bh) >> 7
		case 16:
			cand = zeroBytes(binary.LittleEndian.Uint64(ptags[base:base+8])^bh)>>7 |
				zeroBytes(binary.LittleEndian.Uint64(ptags[base+8:base+16])^bh)>>6
		default:
			for i, t := range tags[base : base+ways] {
				if t == ln {
					w = i
					break
				}
			}
		}
		for ; cand != 0; cand &= cand - 1 {
			tz := bits.TrailingZeros64(cand)
			if i := tz>>3 | tz&1<<3; tags[base+i] == ln {
				w = i
				break
			}
		}
		if op != ln {
			requests++
		}
		if w < 0 {
			// The ring tail is the LRU way, and an empty one while the set
			// has any (see linkRings); rotating the head onto it makes it MRU.
			victim := prev[base+int(heads[set])]
			tags[base+int(victim)] = ln
			ptags[base+int(victim)] = h
			heads[set] = victim
			if op != ln {
				inserts++
			}
			ops[n] = op
			n++
			continue
		}
		if op == ln {
			hits++
		} else if last {
			continue
		} else {
			ops[n] = op
			n++
		}
		if head := int(heads[set]); head != w {
			// moveToHeadSlow, without its shortcut for the ring tail: the
			// splice writes the same links there.
			pw, nw := prev[base+w], next[base+w]
			next[base+int(pw)] = nw
			prev[base+int(nw)] = pw
			tail := prev[base+head]
			prev[base+w] = tail
			next[base+w] = uint16(head)
			next[base+int(tail)] = uint16(w)
			prev[base+head] = uint16(w)
			heads[set] = uint16(w)
		}
	}
	demand := len(ops) - requests
	l.stats.Accesses += uint64(demand)
	l.stats.Hits += uint64(hits)
	l.stats.Misses += uint64(demand - hits)
	l.stats.PrefetchInserts += uint64(inserts)
	return ops[:n]
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
