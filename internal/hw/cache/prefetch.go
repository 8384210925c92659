package cache

import "math/bits"

// StreamPrefetcher models the L2 streamer of modern Intel parts: it watches
// the demand access stream at L2 (line granularity), detects ascending
// sequential streams, and pulls upcoming lines into L2 and L3 ahead of use.
// Each stream remembers how far it has already fetched so steady-state
// sequential scans issue exactly one new prefetch per new line.
//
// The prefetcher is what turns the paper's "random miss" into *two* L3 line
// transfers (§3.1's double-counting modification of the Pirk model): when a
// conditional-read column skips ahead of the prefetched window, the line the
// streamer fetched goes unused while the line actually needed costs a fresh
// demand access.
type StreamPrefetcher struct {
	// Degree is how many lines ahead the prefetcher runs once a stream is
	// confirmed.
	Degree int
	// Window is the maximum forward line distance still treated as the same
	// stream (tolerates skipped lines, as real streamers do).
	Window int
	// MinConfidence is how many consecutive stream hits are needed before
	// prefetching starts.
	MinConfidence int

	// The stream table is stored struct-of-arrays, so verifying a candidate
	// reads one word of one contiguous [16]uint64 of last-seen lines. Empty
	// entries hold invalidLine, which no reachable observation can continue,
	// so a candidate needs no validity test.
	lastLine [streamTableSize]uint64
	// sig holds each entry's block signature — the low byte of
	// lastLine>>sigShift, entry i in byte i%8 of word i/8 — kept by setLast on
	// every lastLine write. observe finds the entries that could continue a
	// line with the SWAR byte compare Level uses on its partial tags (see
	// Level.run): no false negatives, and candidates are verified against
	// lastLine in index order. Words, not bytes, because every call both
	// writes a signature and reads them all: a word load that follows a byte
	// store into it waits for the store to retire.
	sig        [streamTableSize / 8]uint64
	issuedUpTo [streamTableSize]uint64
	confidence [streamTableSize]int32
	// prev/next thread the table entries into one circular list ordered by
	// recency (head = most recently touched, head.prev = victim). This is the
	// same positional-LRU construction as the cache sets: because every
	// observe touches exactly one entry, recency order equals the old
	// last-use-timestamp order, and entries never touched (the empties) stay
	// in their seeded order so victims pop in index order 0, 1, 2, ... —
	// reproducing the old two-pass rule (first invalid entry, else least
	// recently used with ties impossible) without a victim scan.
	prev, next [streamTableSize]uint8
	head       uint8
	linked     bool
	// armed says that the head entry alone can cover any line from fastLo to
	// fastLo+fastX (mod 2^64) under Window == fastWindow (see arm); observe
	// then skips the search for such a line. Window is exported, so the
	// Window armed under is kept and compared.
	armed         bool
	fastLo, fastX uint64
	fastWindow    int
	// Issued counts prefetch requests issued; each consumes an L3 access
	// slot, which is why the paper's L3-access counter includes them.
	Issued uint64

	// Pads the struct to a multiple of 128 bytes: see the false-sharing layout
	// rule in DESIGN.md (pinned by TestLayoutNoFalseSharing).
	_ [80]byte
}

const streamTableSize = 16

// sigShift makes a signature block four lines, the default Window: the lines
// a stream may have stopped at to cover a given line then lie in two blocks.
const sigShift = 2

// maxFilteredWindow is the largest Window observe filters by signature; a
// wider one names so many blocks that scanning the table is no slower.
const maxFilteredWindow = 32

// invalidLine marks an empty stream-table entry. A demand line would need to
// be within Window past it to continue the "stream", i.e. fall in
// [1<<63 + 1, 1<<63 + Window] — beyond any address a simulated allocation can
// produce — so empty entries can share the match scan with live ones.
const invalidLine = uint64(1) << 63

// NewStreamPrefetcher returns a prefetcher with typical streamer parameters:
// degree 2, window 4 lines, confidence threshold 2.
func NewStreamPrefetcher() *StreamPrefetcher {
	return &StreamPrefetcher{Degree: 2, Window: 4, MinConfidence: 2}
}

// link seeds the table: all entries empty, recency ring ordered so that the
// victim (ring tail) cycles 0, 1, ..., 15 while empties remain. The zero
// value of StreamPrefetcher is usable: observe and Reset link on first use.
func (p *StreamPrefetcher) link() {
	for i := range p.lastLine {
		p.setLast(i, invalidLine)
		// Recency order 15, 14, ..., 1, 0 from head to tail: entry 0 is the
		// first victim, then 1, matching first-empty-in-index-order.
		p.prev[i] = uint8((i + 1) % streamTableSize)
		p.next[i] = uint8((i - 1 + streamTableSize) % streamTableSize)
	}
	p.head = streamTableSize - 1
	p.linked = true
	p.armed = false
}

// observe feeds one demand line id into the prefetcher and returns the lines
// to prefetch as a range: the n lines after from. (A count, not an end line:
// line ids near 2^64 wrap.)
//
// The first stream (in index order) whose window covers the line wins; when
// none matches, the least-recently-touched entry is replaced. A stream covers
// line when its last line is one of line-Window .. line-1, and those lie in
// the aligned blocks of four that hold line-Window, line-Window+4, ... and
// line-1 — so only entries whose signature names one of those blocks can
// match. A random gather matches nothing: its L1 misses each cost a couple
// of word compares here instead of the 16-entry scan. A sequential stream
// skips even that while armed: its next lines are the head's alone (see arm).
func (p *StreamPrefetcher) observe(line uint64) (from uint64, n int) {
	if !p.linked {
		p.link()
	}
	window := uint64(p.Window)
	// line continues a stream when 1 <= line-lastLine <= window; unsigned wrap
	// makes the two-sided check one compare.
	bestIdx := int(p.head)
	if !p.armed || p.Window != p.fastWindow || line-p.lastLine[bestIdx&15]-1 >= window || line-p.fastLo > p.fastX {
		c0, c1 := uint64(swarHighs), uint64(swarHighs) // candidates: entries 0-7, 8-15, one high bit per byte
		if window-1 < maxFilteredWindow {
			lo, hi := p.sig[0], p.sig[1]
			b := swarOnes * uint64(uint8((line-1)>>sigShift))
			c0, c1 = zeroBytes(lo^b), zeroBytes(hi^b)
			for d := window; d > 1; d -= min(d, 4) {
				b = swarOnes * uint64(uint8((line-d)>>sigShift))
				c0 |= zeroBytes(lo ^ b)
				c1 |= zeroBytes(hi ^ b)
			}
		}
		bestIdx = -1
		for ; bestIdx < 0 && c0 != 0; c0 &= c0 - 1 {
			if i := bits.TrailingZeros64(c0) >> 3; line-p.lastLine[i&7]-1 < window {
				bestIdx = i
			}
		}
		for ; bestIdx < 0 && c1 != 0; c1 &= c1 - 1 {
			if i := 8 + bits.TrailingZeros64(c1)>>3; line-p.lastLine[i&15]-1 < window {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			victim := p.prev[p.head]
			p.setLast(int(victim), line)
			p.issuedUpTo[victim] = line
			p.confidence[victim] = 0
			p.head = victim // rotate: tail becomes head, rest keep order
			p.armed = false
			return 0, 0
		}
		// Only the head continuing arms: a stream taking the head over waits
		// for its next line, so interleaved streams do not scan the table on
		// every call.
		if uint8(bestIdx) == p.head {
			p.arm(line, window)
		} else {
			p.touch(uint8(bestIdx))
			p.armed = false
		}
	}
	p.confidence[bestIdx]++
	p.setLast(bestIdx, line)
	if int(p.confidence[bestIdx]) < p.MinConfidence {
		return 0, 0
	}
	// Fetch up to Degree lines ahead of the demand line, skipping anything
	// this stream already issued.
	from = line
	if p.issuedUpTo[bestIdx] > from {
		from = p.issuedUpTo[bestIdx]
	}
	to := line + uint64(p.Degree)
	if from >= to {
		return 0, 0
	}
	p.issuedUpTo[bestIdx] = to
	n = int(to - from)
	p.Issued += uint64(n)
	return from, n
}

// setLast records line as entry i's last-seen line, and its signature.
func (p *StreamPrefetcher) setLast(i int, line uint64) {
	p.lastLine[i&15] = line
	word, shift := &p.sig[i>>3&1], uint(i&7)*8
	*word = *word&^(0xff<<shift) | uint64(uint8(line>>sigShift))<<shift
}

// arm is called when a matched observe finds the head continuing to line.
// Another entry covers a line L when its last line is one of L-window .. L-1.
// If one's last line is one of line+1-window .. line, it may cover line+1
// already and arm leaves the streamer disarmed. Otherwise fastLo is line+1 and
// fastX the distance from there to the nearest other last line (mod 2^64):
// no other entry's last line lies in fastLo-window .. fastLo+fastX-1, and for
// every L with L-fastLo <= fastX that range holds all of L-window .. L-1, so a
// line the head covers there is the head's alone. Only an observe that moves
// the head moves another entry, and it disarms.
func (p *StreamPrefetcher) arm(line, window uint64) {
	lo, near := line+1-window, ^uint64(0)
	for j, last := range p.lastLine {
		if j == int(p.head) {
			continue
		}
		if last-lo < window {
			p.armed = false
			return
		}
		near = min(near, last-lo)
	}
	p.armed, p.fastLo, p.fastX, p.fastWindow = true, line+1, near-window, p.Window
}

// touch makes entry w the most recently used.
func (p *StreamPrefetcher) touch(w uint8) {
	head := p.head
	if w == head {
		return
	}
	if p.prev[head] == w {
		// w is the ring tail: rotating the head promotes it and keeps every
		// other relative position.
		p.head = w
		return
	}
	// Unlink w ...
	p.next[p.prev[w]] = p.next[w]
	p.prev[p.next[w]] = p.prev[w]
	// ... and splice it in before head.
	tail := p.prev[head]
	p.prev[w] = tail
	p.next[w] = head
	p.next[tail] = w
	p.prev[head] = w
	p.head = w
}

// Reset clears all detected streams and the issue counter.
func (p *StreamPrefetcher) Reset() {
	p.link()
	p.Issued = 0
}
