package exec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// TestSetStorageAllocatesNothing: core.Run attaches a stored run's stream to
// every core on every step — on a pool of one core an adaptive step can be
// one vector — so an attach and a detach allocate nothing, and neither does
// a stored block once its scratch exists: its morsels' dispatches and the
// stream's fetches write into arrays the stream was built with. A traced
// core records its morsels' tier events whichever of SetTrace and SetStorage
// came first, one tier-fetch per fetch.
func TestSetStorageAllocatesNothing(t *testing.T) {
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e := p.Engines()[0]
	numVec := p.NumVectors(q)
	newStream := func() *Stream {
		s, err := NewStream(StreamConfig{LatencyCycles: 300, BytesPerCycle: 8, BudgetBytes: 6 << 10}, nil, 1024,
			q.Table.NumRows(), 4096, [][]uint64{uniformBytes(q.Table.NumRows(), 4096, 2048), uniformBytes(q.Table.NumRows(), 4096, 1024)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newStream()
	if n := testing.AllocsPerRun(100, func() {
		e.SetStorage(s)
		e.SetStorage(nil)
	}); n != 0 {
		t.Errorf("SetStorage(s); SetStorage(nil) allocates %v times, want 0", n)
	}
	e.SetStorage(s)
	var sum float64
	if _, err := runBlock(p, q, 0, numVec, ImplBranching, &sum); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Cold()
		if _, err := runBlock(p, q, 0, numVec, ImplBranching, &sum); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a stored block allocates %v times, want 0", n)
	}
	e.SetStorage(nil)

	for _, traceFirst := range []bool{true, false} {
		s := newStream()
		tr := trace.New().NewTrack("core 0")
		if traceFirst {
			e.SetTrace(tr)
			e.SetStorage(s)
		} else {
			e.SetStorage(s)
			e.SetTrace(tr)
		}
		if _, err := runBlock(p, q, 0, numVec, ImplBranching, &sum); err != nil {
			t.Fatal(err)
		}
		e.SetTrace(nil)
		e.SetStorage(nil)
		fetches, evictions := 0, 0
		for _, ev := range tr.Events() {
			switch ev.Name {
			case "tier-fetch":
				fetches++
			case "tier-evict":
				evictions++
			}
		}
		c := s.Counters()
		if uint64(fetches) != c.BlockFetches || uint64(evictions) != c.Evictions || c.Evictions == 0 {
			t.Errorf("trace first %v: %d tier-fetch and %d tier-evict events, counters %+v", traceFirst, fetches, evictions, c)
		}
	}
}

// uniformBytes is a column of equal-sized blocks.
func uniformBytes(rows, blockRows int, bytes uint64) []uint64 {
	out := make([]uint64, (rows+blockRows-1)/blockRows)
	for i := range out {
		out[i] = bytes
	}
	return out
}

// streamCase is an engine-free stream scenario: a table of rows in vectors
// and blocks, the bytes of each read column's blocks, the skipped vectors,
// the tier, and the entry clock of each dispatched vector.
type streamCase struct {
	name                        string
	rows, vectorSize, blockRows int
	bytes                       [][]uint64
	skip                        []bool
	cfg                         StreamConfig
	entries                     []uint64 // one per vector Skip leaves, in order
}

// dispatched is one dispatch as the case makes it.
type dispatched struct {
	lo, hi int
	entry  uint64
}

// dispatches lists the case's dispatches: every vector Skip leaves, up to
// len(entries) of them.
func (c *streamCase) dispatches() []dispatched {
	var out []dispatched
	for lo := 0; lo < c.rows && len(out) < len(c.entries); lo += c.vectorSize {
		if v := lo / c.vectorSize; v < len(c.skip) && c.skip[v] {
			continue
		}
		out = append(out, dispatched{lo, min(lo+c.vectorSize, c.rows), c.entries[len(out)]})
	}
	return out
}

// replayUnit is one (column, block) unit of the brute-force replay.
type replayUnit struct {
	block, col int
	bytes      uint64
	ready      uint64
	fetched    bool
}

// replay is the stream's rules spelled out for a test, independent of its
// cursors: it lists every unit the case reads, then, dispatch by dispatch,
// fetches what the dispatch needs, each unit at the earliest time from the
// channel's free time on at which the units fetched before it and not yet
// evictable leave it room — a block being evictable from the time the
// dispatch that read it last happened, at entry + shifts[i] — or, when no
// such time exists, once every evictable unit is. It returns the time each
// dispatch's blocks are ready.
func replay(c *streamCase, ds []dispatched, shifts []uint64) []uint64 {
	nb := (c.rows + c.blockRows - 1) / c.blockRows
	reads := make([]bool, nb)
	lastLo := make([]int, nb)
	for lo := 0; lo < c.rows; lo += c.vectorSize {
		if v := lo / c.vectorSize; v < len(c.skip) && c.skip[v] {
			continue
		}
		for b := lo / c.blockRows; b*c.blockRows < min(lo+c.vectorSize, c.rows); b++ {
			reads[b], lastLo[b] = true, lo
		}
	}
	var units []*replayUnit
	for b := range nb {
		if reads[b] {
			for col := range c.bytes {
				units = append(units, &replayUnit{block: b, col: col, bytes: c.bytes[col][b]})
			}
		}
	}
	bw := max(c.cfg.BytesPerCycle, 1)
	evictableAt := map[int]uint64{} // block -> time it became evictable
	var chanFree uint64
	out := make([]uint64, len(ds))
	for i, d := range ds {
		if i == 0 {
			chanFree = d.entry
		}
		hiBlock := (d.hi - 1) / c.blockRows
		var ready uint64
		for _, u := range units {
			if u.block > hiBlock {
				break
			}
			if !u.fetched {
				start := chanFree
				if budget := c.cfg.BudgetBytes; budget > 0 {
					held := func(t uint64) (n uint64) {
						for _, w := range units {
							if at, ok := evictableAt[w.block]; w.fetched && (!ok || at > t) {
								n += w.bytes
							}
						}
						return n
					}
					fits := held(start)+u.bytes <= budget
					var latest uint64
					for _, at := range evictableAt {
						latest = max(latest, at)
					}
					for t := start; !fits && t <= latest; t++ {
						if held(t)+u.bytes <= budget {
							start, fits = t, true
						}
					}
					if !fits {
						start = max(start, latest)
					}
				}
				u.fetched, u.ready = true, start+c.cfg.LatencyCycles+(u.bytes+bw-1)/bw
				chanFree = u.ready
			}
			if u.block >= d.lo/c.blockRows {
				ready = max(ready, u.ready)
			}
		}
		out[i] = ready
		for b := range nb {
			if _, ok := evictableAt[b]; !ok && reads[b] && lastLo[b] <= d.lo {
				evictableAt[b] = d.entry + shifts[i]
			}
		}
	}
	return out
}

// checkStream dispatches the case on a stream and checks, after every
// dispatch: fetched − evicted = resident; resident ≤ budget but for the
// blocks of the dispatch that admitted them anyway; each unit fetched once;
// ready times that never decrease; and a shift that is the least under which
// every dispatch finds its blocks ready — the brute-force replay at the
// shifts the stream reported has every dispatch ready, and has the dispatch
// where the shift grew not ready at its shift − 1.
func checkStream(t *testing.T, c *streamCase) {
	t.Helper()
	s, err := NewStream(c.cfg, c.skip, c.vectorSize, c.rows, c.blockRows, c.bytes)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.dispatches()
	shifts := make([]uint64, len(ds))
	var prevShift uint64
	for i, d := range ds {
		ev := s.dispatch(d.lo, d.hi, d.entry)
		cnt := s.Counters()
		var resident uint64
		for k := s.evicted; k < s.fetched; k++ {
			resident += s.bytes[k]
		}
		if cnt.BlockFetches-cnt.Evictions != uint64(s.fetched-s.evicted) || resident != s.ResidentBytes() {
			t.Fatalf("%s: dispatch %d: fetched %d − evicted %d, resident %d B, units hold %d B",
				c.name, i, cnt.BlockFetches, cnt.Evictions, s.ResidentBytes(), resident)
		}
		if budget := c.cfg.BudgetBytes; budget > 0 && resident > budget {
			var own uint64
			for k := s.evicted; k < s.fetched; k++ {
				if b := int(s.blocks[k/s.cols]); b >= d.lo/c.blockRows && b <= (d.hi-1)/c.blockRows {
					own += s.bytes[k]
				}
			}
			if resident-own > budget {
				t.Fatalf("%s: dispatch %d: %d B resident over a %d B budget, %d B of them outside the dispatch's blocks",
					c.name, i, resident, budget, resident-own)
			}
		}
		if int(ev.fetchEnd) != s.fetched || ev.fetch > ev.fetchEnd {
			t.Fatalf("%s: dispatch %d: events %+v, %d fetched", c.name, i, ev, s.fetched)
		}
		if cnt.StallCycles < prevShift {
			t.Fatalf("%s: dispatch %d: shift fell %d -> %d", c.name, i, prevShift, cnt.StallCycles)
		}
		shifts[i], prevShift = cnt.StallCycles, cnt.StallCycles
	}
	for k := 1; k < s.fetched; k++ {
		if s.ready[k] < s.ready[k-1] {
			t.Fatalf("%s: unit %d ready at %d, before unit %d at %d", c.name, k, s.ready[k], k-1, s.ready[k-1])
		}
	}
	if s.fetched > len(s.bytes) {
		t.Fatalf("%s: %d fetches of %d units", c.name, s.fetched, len(s.bytes))
	}
	ready := replay(c, ds, shifts)
	for i, d := range ds {
		if ready[i] > d.entry+shifts[i] {
			t.Fatalf("%s: dispatch %d at %d+%d, its blocks ready at %d in the replay", c.name, i, d.entry, shifts[i], ready[i])
		}
		if grew := i == 0 && shifts[i] > 0 || i > 0 && shifts[i] > shifts[i-1]; grew && ready[i] <= d.entry+shifts[i]-1 {
			t.Fatalf("%s: dispatch %d grew the shift to %d, but its blocks are ready at %d ≤ %d+%d−1",
				c.name, i, shifts[i], ready[i], d.entry, shifts[i])
		}
	}
	if n := uint64(len(ds)); n > 0 && s.Counters().StallCycles != shifts[n-1] {
		t.Fatalf("%s: counters' stall %d, final shift %d", c.name, s.Counters().StallCycles, shifts[n-1])
	}
}

// evenEntries are n entries gap cycles apart, from 1000.
func evenEntries(n int, gap uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1000 + uint64(i)*gap
	}
	return out
}

// TestStreamRules table-tests the stream: budgets of 0, below one block and
// of a few blocks; vectors that straddle blocks; skipped vectors and pruned
// blocks; several cores' equal entry clocks; a cut run.
func TestStreamRules(t *testing.T) {
	two := [][]uint64{uniformBytes(16*100, 400, 3000), uniformBytes(16*100, 400, 1000)}
	skip := make([]bool, 16)
	for v := 4; v < 12; v++ {
		skip[v] = true
	}
	cases := []streamCase{
		{name: "unbounded", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 4}, entries: evenEntries(16, 600)},
		{name: "below one block", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 4, BudgetBytes: 2000}, entries: evenEntries(16, 600)},
		{name: "two blocks", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 4, BudgetBytes: 8000}, entries: evenEntries(16, 600)},
		{name: "zero bandwidth is one", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 7, BudgetBytes: 4500}, entries: evenEntries(16, 10)},
		{name: "straddling vectors", rows: 1550, vectorSize: 300, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 2, BudgetBytes: 5000}, entries: evenEntries(6, 900)},
		{name: "skipped", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two, skip: skip,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 4, BudgetBytes: 8000}, entries: evenEntries(8, 600)},
		{name: "four cores", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg:     StreamConfig{LatencyCycles: 50, BytesPerCycle: 4, BudgetBytes: 8000},
			entries: []uint64{0, 0, 0, 0, 700, 700, 710, 720, 1400, 1400, 1420, 1440, 2100, 2100, 2130, 2160}},
		{name: "cut run", rows: 1600, vectorSize: 100, blockRows: 400, bytes: two,
			cfg: StreamConfig{LatencyCycles: 50, BytesPerCycle: 4, BudgetBytes: 2000}, entries: evenEntries(7, 600)},
		{name: "no column", rows: 1600, vectorSize: 100, blockRows: 400,
			cfg: StreamConfig{LatencyCycles: 50}, entries: evenEntries(16, 600)},
	}
	for i := range cases {
		c := &cases[i]
		t.Run(c.name, func(t *testing.T) { checkStream(t, c) })
	}

	// A lone unit costs LatencyCycles + ⌈bytes/BytesPerCycle⌉, all of it
	// stall for the dispatch that waits for it; a later vector of its block
	// hits and stalls no more.
	t.Run("fetch pricing", func(t *testing.T) {
		s, err := NewStream(StreamConfig{LatencyCycles: 100, BytesPerCycle: 8}, nil, 5, 10, 10, [][]uint64{{801}})
		if err != nil {
			t.Fatal(err)
		}
		s.dispatch(0, 5, 5000)
		if c := s.Counters(); c != (StreamCounters{BlockFetches: 1, BytesFetched: 801, StallCycles: 100 + 101}) {
			t.Fatalf("one unit: %+v", c)
		}
		s.dispatch(5, 10, 5001)
		if c := s.Counters(); c != (StreamCounters{BlockFetches: 1, BytesFetched: 801, BlockHits: 1, StallCycles: 100 + 101}) {
			t.Fatalf("one unit read twice: %+v", c)
		}
	})
	// Cold forgets what a run fetched, evicted and counted: the run after it
	// prices as a new stream's does.
	t.Run("cold", func(t *testing.T) {
		build := func() *Stream {
			s, err := NewStream(StreamConfig{LatencyCycles: 10, BytesPerCycle: 1, BudgetBytes: 100}, nil, 5, 20, 10, [][]uint64{{60, 60}})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		run := func(s *Stream) {
			for v, entry := range []uint64{0, 1000, 2000, 3000} {
				s.dispatch(5*v, 5*v+5, entry)
			}
		}
		fresh := build()
		run(fresh)
		if c := fresh.Counters(); c.Evictions == 0 || c.BlockHits == 0 {
			t.Fatalf("run neither evicts nor hits (%+v); the comparison is vacuous", c)
		}
		used := build()
		run(used)
		used.Cold()
		if c := used.Counters(); c != (StreamCounters{}) || used.ResidentBytes() != 0 {
			t.Fatalf("cold stream: %+v, %d B resident", c, used.ResidentBytes())
		}
		run(used)
		if used.Counters() != fresh.Counters() || used.ResidentBytes() != fresh.ResidentBytes() {
			t.Fatalf("run after Cold: %+v, %d B resident; a new stream's %+v, %d B",
				used.Counters(), used.ResidentBytes(), fresh.Counters(), fresh.ResidentBytes())
		}
	})
	// A later vector of a fetched block hits; an earlier block's units are
	// evicted only when a fetch needs their room.
	t.Run("hits and evictions", func(t *testing.T) {
		s, err := NewStream(StreamConfig{LatencyCycles: 10, BytesPerCycle: 1, BudgetBytes: 100}, nil, 5, 20, 10, [][]uint64{{60, 60}})
		if err != nil {
			t.Fatal(err)
		}
		for v, entry := range []uint64{0, 1000, 2000, 3000} {
			s.dispatch(5*v, 5*v+5, entry)
		}
		if c := s.Counters(); c.BlockHits != 2 || c.Evictions != 1 || c.BlockFetches != 2 || s.ResidentBytes() != 60 {
			t.Fatalf("two blocks of two vectors under a one-block budget: %+v, %d B resident", c, s.ResidentBytes())
		}
	})
	t.Run("geometry validation", func(t *testing.T) {
		if _, err := NewStream(StreamConfig{}, nil, 10, 100, 10, [][]uint64{{1, 2}}); err == nil {
			t.Error("a column of 2 blocks accepted for a table of 10")
		}
		if _, err := NewStream(StreamConfig{}, nil, 0, 100, 10, nil); err == nil {
			t.Error("a zero vector size accepted")
		}
	})
}

// decodeStreamCase builds a case from fuzz bytes: geometry, tier, bytes per
// unit, skipped vectors and entry increments.
func decodeStreamCase(seed int64, data []byte) *streamCase {
	rng := rand.New(rand.NewSource(seed))
	next := func(n int) int {
		if len(data) >= 2 {
			v := int(binary.LittleEndian.Uint16(data))
			data = data[2:]
			return v % n
		}
		return rng.Intn(n)
	}
	c := &streamCase{name: fmt.Sprintf("seed %d", seed)}
	c.vectorSize = 1 + next(8)
	c.blockRows = 1 + next(12)
	c.rows = next(60)
	cols := next(4)
	nb := (c.rows + c.blockRows - 1) / c.blockRows
	var maxBlock uint64
	for range cols {
		col := make([]uint64, nb)
		for b := range col {
			col[b] = uint64(next(64))
			maxBlock = max(maxBlock, col[b])
		}
		c.bytes = append(c.bytes, col)
	}
	switch next(4) {
	case 0: // unbounded
	case 1: // below one block
		c.cfg.BudgetBytes = 1 + uint64(next(int(maxBlock)+1))
	default: // a few blocks
		c.cfg.BudgetBytes = 1 + uint64(next(int(maxBlock)*cols*4+1))
	}
	c.cfg.LatencyCycles = uint64(next(20))
	c.cfg.BytesPerCycle = uint64(next(5))
	numVec := (c.rows + c.vectorSize - 1) / c.vectorSize
	c.skip = make([]bool, numVec)
	for v := range c.skip {
		c.skip[v] = next(4) == 0
	}
	n := 0
	for v := range numVec {
		if !c.skip[v] {
			n++
		}
	}
	n -= next(3) // sometimes a cut run
	entry := uint64(next(100))
	for range max(n, 0) {
		c.entries = append(c.entries, entry)
		if next(3) > 0 {
			entry += uint64(next(80))
		}
	}
	return c
}

// FuzzStreamRules checks the stream's rules (checkStream) on cases decoded
// from the fuzzer's bytes.
func FuzzStreamRules(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, []byte{})
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		checkStream(t, decodeStreamCase(seed, data))
	})
}
