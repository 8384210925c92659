package exec

import (
	"fmt"

	"progopt/internal/trace"
)

// Stream is the storage tier of one stored run: the zone-map verdicts of its
// plan and the read-ahead stream that brings the run's column blocks from
// persistent storage into DRAM, as a buffer manager reads a scan's column
// chunks ahead of use.
//
//   - Skip is the zone-map verdict per global vector index: true means the
//     compiled predicates prove no row of the vector can qualify, so the
//     vector is answered from metadata alone — no load, instruction, or
//     branch is simulated, and the stream is not told of it. Consulting the
//     zone maps is not charged: they are a few words per block, read at plan
//     time.
//   - The stream fetches one (column, block) unit at a time, for every column
//     the query reads, over one channel: back to back, in ascending block
//     order, from the run's first dispatched morsel on. A fetch costs
//     LatencyCycles + ⌈encoded bytes / BytesPerCycle⌉ and starts only once
//     the resident units leave it room in BudgetBytes. A block becomes
//     evictable when the last morsel that reads it is dispatched, and units
//     are evicted in the order they became evictable, only to make room; a
//     unit that finds nothing left to evict is admitted anyway, since no
//     dispatch that would free room can come before the one that needs it,
//     and the resident set then sheds every unit as it becomes evictable
//     until it fits the budget again.
//
// The run's morsels are reported to the stream as they are dispatched
// (BlockRun.acquire, in the serial pick order), each with its entry clock.
// When a morsel's blocks are ready only after entry + shift, the run's shift
// grows by the difference, and core.Run adds the final shift to every core's
// clock when the run completes. Nothing else of the run moves: its morsel
// schedule, counters and answers are those of the in-RAM run, and its Cycles
// those plus the shift. The stream is engine-free and its rules are
// table-tested and fuzzed against a brute-force replay (TestStreamRules,
// FuzzStreamRules).
//
// A query's stream is part of its core.Spec (Storage), and core.Run owns it:
// it attaches it to every core on each step, colds it with its cores and
// applies the shift.
type Stream struct {
	Skip []bool

	cfg       StreamConfig
	blockRows int
	cols      int
	// blocks are the table blocks the run reads — those some vector Skip
	// leaves overlaps — ascending; at[b] is block b's index among them, -1 for
	// a block no vector reads. Unit k is column k%cols of blocks[k/cols], and
	// bytes[k] its encoded size.
	blocks []int32
	at     []int32
	bytes  []uint64
	// last[i] is the first row of the last vector that reads blocks[i].
	last []int

	// The run: units [0, fetched) have been fetched and [0, evicted) evicted,
	// and the units of blocks [0, released) are evictable, blocks[i] since
	// relAt[i]; resident holds the bytes of units [evicted, fetched). Unit k's
	// fetch completed at ready[k], when evUpTo[k] units had been evicted.
	// Blocks [0, used) have been read by a dispatched morsel. held is resident
	// as it would be had units been evicted only to make room, units [freed,
	// fetched): what times the fetches (fetch).
	fetched, evicted, released, used, freed int
	resident, held, bytesFetched, hits      uint64
	started                                 bool
	chanFree, shift                         uint64
	ready, relAt                            []uint64
	evUpTo                                  []int32
}

// StreamConfig prices the storage tier.
type StreamConfig struct {
	// LatencyCycles is the fixed cost of one unit's fetch (the seek).
	LatencyCycles uint64
	// BytesPerCycle is the transfer bandwidth (0 = 1).
	BytesPerCycle uint64
	// BudgetBytes bounds the run's resident encoded bytes; 0 = unbounded.
	BudgetBytes uint64
}

// StreamCounters are a stream's statistics since it was built or colded.
type StreamCounters struct {
	// BlockFetches counts (column, block) units fetched, BytesFetched their
	// encoded bytes, and Evictions the units evicted to make room.
	BlockFetches, BytesFetched, Evictions uint64
	// BlockHits counts the units dispatched morsels read after the first
	// morsel over their block.
	BlockHits uint64
	// StallCycles is the run's shift: what the tier adds to its Cycles.
	StallCycles uint64
}

// NewStream builds the stream of a run over numRows rows in vectors of
// vectorSize, stored in blocks of blockRows; skip is the plan's zone-map
// verdict per vector, and bytes[c][b] the encoded size of block b of the c-th
// column the query reads.
func NewStream(cfg StreamConfig, skip []bool, vectorSize, numRows, blockRows int, bytes [][]uint64) (*Stream, error) {
	if vectorSize <= 0 || blockRows <= 0 || numRows < 0 {
		return nil, fmt.Errorf("exec: stream over %d rows in vectors of %d and blocks of %d", numRows, vectorSize, blockRows)
	}
	nb := (numRows + blockRows - 1) / blockRows
	for c, col := range bytes {
		if len(col) != nb {
			return nil, fmt.Errorf("exec: stream column %d has %d blocks, the table %d", c, len(col), nb)
		}
	}
	cfg.BytesPerCycle = max(cfg.BytesPerCycle, 1)
	s := &Stream{Skip: skip, cfg: cfg, blockRows: blockRows, cols: len(bytes), at: make([]int32, nb)}
	for b := range s.at {
		s.at[b] = -1
	}
	for lo := 0; lo < numRows; lo += vectorSize {
		if v := lo / vectorSize; v < len(skip) && skip[v] {
			continue
		}
		for b := lo / blockRows; b*blockRows < min(lo+vectorSize, numRows); b++ {
			if s.at[b] < 0 {
				s.at[b] = int32(len(s.blocks))
				s.blocks = append(s.blocks, int32(b))
				s.last = append(s.last, lo)
			}
			s.last[s.at[b]] = lo
		}
	}
	for _, b := range s.blocks {
		for _, col := range bytes {
			s.bytes = append(s.bytes, col[b])
		}
	}
	s.ready = make([]uint64, len(s.bytes))
	s.evUpTo = make([]int32, len(s.bytes))
	s.relAt = make([]uint64, len(s.blocks))
	return s, nil
}

// Cold returns the stream to its built state: nothing fetched, resident or
// counted. It is the tier's half of a cold start (cpu.CPU.Cold is the
// core's), so the counters read after a run are that run's alone.
func (s *Stream) Cold() {
	s.fetched, s.evicted, s.released, s.used, s.freed = 0, 0, 0, 0, 0
	s.resident, s.held, s.bytesFetched, s.hits = 0, 0, 0, 0
	s.started, s.chanFree, s.shift = false, 0, 0
}

// Counters returns the run's statistics.
func (s *Stream) Counters() StreamCounters {
	return StreamCounters{
		BlockFetches: uint64(s.fetched), BytesFetched: s.bytesFetched, Evictions: uint64(s.evicted),
		BlockHits: s.hits, StallCycles: s.shift,
	}
}

// ResidentBytes returns the encoded bytes the run holds in DRAM.
func (s *Stream) ResidentBytes() uint64 { return s.resident }

// tierEvents are the fetches and evictions one dispatch caused: units
// [fetch, fetchEnd) fetched, units [evict, evictEnd) evicted, those below a
// fetch's evUpTo before it.
type tierEvents struct{ fetch, fetchEnd, evict, evictEnd int32 }

// dispatch reports a morsel over rows [lo, hi), which Skip leaves, entering
// at clock entry: it fetches the units of the morsel's blocks not yet
// fetched, grows the shift if they are ready only after entry + shift, and
// makes evictable the blocks the morsel is the last reader of. Dispatches
// come in ascending row order with entries that never decrease.
func (s *Stream) dispatch(lo, hi int, entry uint64) tierEvents {
	ev := tierEvents{fetch: int32(s.fetched), evict: int32(s.evicted)}
	first, end := int(s.at[lo/s.blockRows]), int(s.at[(hi-1)/s.blockRows])+1
	if !s.started {
		s.started, s.chanFree = true, entry
	}
	for s.fetched < end*s.cols {
		s.fetch()
	}
	if need := end * s.cols; need > 0 && s.ready[need-1] > entry+s.shift {
		s.shift = s.ready[need-1] - entry
	}
	if s.used > first {
		s.hits += uint64((min(s.used, end) - first) * s.cols)
	}
	s.used = max(s.used, end)
	for ; s.released < len(s.blocks) && s.last[s.released] <= lo; s.released++ {
		s.relAt[s.released] = entry + s.shift
	}
	// Over budget after an admitted-anyway unit, the resident set sheds what
	// has just become evictable.
	for s.cfg.BudgetBytes > 0 && s.resident > s.cfg.BudgetBytes && s.evicted < s.released*s.cols {
		s.evict()
	}
	ev.fetchEnd, ev.evictEnd = int32(s.fetched), int32(s.evicted)
	return ev
}

// evict evicts the next evictable unit.
func (s *Stream) evict() {
	s.resident -= s.bytes[s.evicted]
	s.evicted++
}

// fetch fetches the next unit, evicting to make room for it first. It starts
// once the channel is free and the units its room needs are evictable: as
// soon as a buffer that evicts only to make room could start it, whether or
// not the resident set has shed them before.
func (s *Stream) fetch() {
	k := s.fetched
	size, start := s.bytes[k], s.chanFree
	for s.cfg.BudgetBytes > 0 && s.held+size > s.cfg.BudgetBytes && s.freed < s.released*s.cols {
		start = max(start, s.relAt[s.freed/s.cols])
		s.held -= s.bytes[s.freed]
		s.freed++
	}
	for s.evicted < s.freed {
		s.evict()
	}
	s.ready[k] = start + s.cfg.LatencyCycles + (size+s.cfg.BytesPerCycle-1)/s.cfg.BytesPerCycle
	s.evUpTo[k] = int32(s.evicted)
	s.chanFree = s.ready[k]
	s.resident += size
	s.held += size
	s.bytesFetched += size
	s.fetched++
}

// trace records one dispatch's events on the dispatching core's track at the
// morsel's entry, each eviction before the fetch it made room for.
func (s *Stream) trace(tr *trace.Track, at uint64, ev tierEvents) {
	x := ev.evict
	for k := ev.fetch; k < ev.fetchEnd; k++ {
		for ; x < s.evUpTo[k]; x++ {
			tr.Instant("tier-evict", at, trace.Int("block", int(s.blocks[int(x)/s.cols])), trace.Int("col", int(x)%s.cols))
		}
		tr.Instant("tier-fetch", at, trace.Int("block", int(s.blocks[int(k)/s.cols])), trace.Int("col", int(k)%s.cols),
			trace.Uint64("bytes", s.bytes[k]), trace.Uint64("ready", s.ready[k]))
	}
	for ; x < ev.evictEnd; x++ {
		tr.Instant("tier-evict", at, trace.Int("block", int(s.blocks[int(x)/s.cols])), trace.Int("col", int(x)%s.cols))
	}
}

// SetStorage attaches (or, with nil, detaches) a stored run's stream: its
// skip verdicts apply to the vectors this core runs. core.Run owns the
// lifecycle, as it does the sort collectors': each step attaches the query's
// stream to every core and detaches it after. Attaching allocates nothing.
func (e *Engine) SetStorage(s *Stream) { e.stor = s }

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
