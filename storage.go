package progopt

import (
	"progopt/internal/columnar"
	"progopt/internal/exec"
	"progopt/internal/storage"
)

// StorageConfig puts the driving table on simulated persistent storage: the
// data set is encoded into the PCOL v2 block format (dictionary and
// frame-of-reference compression, per-block zone maps), its decoded image is
// what queries execute over, and a storage tier below DRAM brings the blocks
// of the columns a query reads into DRAM ahead of use: one read-ahead stream
// per run, fetching block by block over one channel, overlapped with the
// scan and bounded by a resident-set budget.
//
// The zero value of every field is a valid "faithful" configuration: blocks
// price at zero seek latency and unit bandwidth, the resident set is
// unbounded, and both scan optimizations are off. A faithful stored run
// retires the identical instruction, load, and branch stream as the same
// plan over the in-RAM data set — results, morsel schedule, and every PMU
// counter are bit-identical; only the reported Cycles grows, by exactly the
// run's StallCycles: the time the scan waited for blocks the stream had not
// yet brought in, at every worker count.
type StorageConfig struct {
	// BlockRows is rows per storage block (default 4096).
	BlockRows int
	// LatencyCycles is the fixed seek cost per block fetch.
	LatencyCycles uint64
	// BytesPerCycle is the tier's transfer bandwidth (0 = 1).
	BytesPerCycle uint64
	// ResidentBytes bounds the DRAM-resident encoded bytes of a run: its
	// stream fetches a block only once evicting blocks the scan is done with
	// makes room for it, so the budget also bounds how far it reads ahead
	// (0 = unbounded). A block larger than the budget is admitted once the
	// blocks before it are gone.
	ResidentBytes uint64
	// SkipScan answers vectors that zone maps prove empty from metadata
	// alone — no loads, instructions, or branches are simulated for them.
	SkipScan bool
	// CompressedScan prices predicate scans over the packed column images
	// (dictionary codes, FoR deltas) instead of the decoded values, moving
	// fewer simulated bytes. Results are unchanged; the simulated address
	// stream is what differs.
	CompressedScan bool
}

// blockRows applies the BlockRows default.
func (c *StorageConfig) blockRows() int {
	if c.BlockRows > 0 {
		return c.BlockRows
	}
	return 4096
}

// planConfig maps the public knobs to the storage compiler's.
func (c *StorageConfig) planConfig() storage.Config {
	return storage.Config{
		LatencyCycles:  c.LatencyCycles,
		BytesPerCycle:  c.BytesPerCycle,
		ResidentBytes:  c.ResidentBytes,
		SkipScan:       c.SkipScan,
		CompressedScan: c.CompressedScan,
	}
}

// storedTable is one data set's stored driving table materialized in one
// engine: the encoded table, its decoded image (bound into the engine's
// address space by the first Compile), and — for compressed scans — the
// packed images, allocated once after every ordinary bind.
type storedTable struct {
	enc    *columnar.EncodedTable
	tab    *columnar.Table
	packed map[string]storage.PackedImage
}

// storedQuery is a compiled query's stored-scan state: the immutable plan
// and the stream its runs scan through, colded by each Exec.
type storedQuery struct {
	plan   *storage.Plan
	stream *exec.Stream
}

// StorageStats reports a stored scan: the plan's zone-map pruning and the
// run's tier activity summed across cores.
type StorageStats struct {
	// BlocksTotal is the stored table's block count; BlocksPruned how many
	// the compiled predicates proved empty; VectorsSkipped how many
	// execution vectors were answered from metadata alone.
	BlocksTotal, BlocksPruned, VectorsSkipped int
	// PlainBytes and EncodedBytes are the table's decoded and stored sizes.
	PlainBytes, EncodedBytes int
	// BlockFetches, BlockHits, BytesFetched, Evictions, StallCycles are the
	// run's tier counters (exec.StreamCounters): (column, block) fetches,
	// later morsels' reads of fetched blocks, and the Cycles the tier added.
	BlockFetches, BlockHits, BytesFetched, Evictions, StallCycles uint64
}

// storedLineitem returns (building and caching on first use) the engine's
// stored image of the data set's lineitem table.
func (e *Engine) storedLineitem(d *Dataset) (*storedTable, error) {
	if st, ok := e.stored[d.gen]; ok {
		return st, nil
	}
	enc, err := d.EncodedLineitem(e.stcfg.blockRows())
	if err != nil {
		return nil, err
	}
	tab, err := enc.Decode()
	if err != nil {
		return nil, err
	}
	if e.stored == nil {
		e.stored = make(map[uint64]*storedTable)
	}
	st := &storedTable{enc: enc, tab: tab}
	e.stored[d.gen] = st
	return st, nil
}

// compileStorage builds the stored-scan plan and stream for a freshly
// compiled and bound query, which also reads the columns more. Packed images
// (compressed scan) are allocated on first use, after every ordinary bind of
// the engine's first compile, so a faithful configuration stays
// address-identical to an in-RAM engine.
func (e *Engine) compileStorage(st *storedTable, q *exec.Query, more []*columnar.Column) (*storedQuery, error) {
	plan, err := storage.Compile(st.enc, st.tab, q, e.par.VectorSize(), e.stcfg.planConfig(), more...)
	if err != nil {
		return nil, err
	}
	if e.stcfg.CompressedScan {
		if st.packed == nil {
			if st.packed, err = storage.AllocPacked(e.par, st.enc); err != nil {
				return nil, err
			}
		}
		plan.ScanPacked(st.packed, q)
	}
	stream, err := plan.NewStream()
	if err != nil {
		return nil, err
	}
	return &storedQuery{plan: plan, stream: stream}, nil
}

// storageStats folds the plan facts and the counters of a run's stream —
// cold or new when it began, so the counters are that run's — into the public
// report. The run's Cycles already hold its stall (core.Run adds it).
func storageStats(p *storage.Plan, s *exec.Stream) *StorageStats {
	c := s.Counters()
	return &StorageStats{
		BlocksTotal:    p.BlocksTotal(),
		BlocksPruned:   p.BlocksPruned(),
		VectorsSkipped: p.VectorsSkipped(),
		PlainBytes:     p.Enc.PlainBytes(),
		EncodedBytes:   p.Enc.EncodedBytes(),
		BlockFetches:   c.BlockFetches,
		BlockHits:      c.BlockHits,
		BytesFetched:   c.BytesFetched,
		Evictions:      c.Evictions,
		StallCycles:    c.StallCycles,
	}
}

// EncodedLineitem returns (encoding and caching on first use) the data set's
// lineitem table in the PCOL v2 block format with the given block size.
// Experiments and storage-backed engines share the cached encoding; it is
// deterministic, so sharing is observation-free.
func (d *Dataset) EncodedLineitem(blockRows int) (*columnar.EncodedTable, error) {
	d.encMu.Lock()
	defer d.encMu.Unlock()
	if d.encCache == nil {
		d.encCache = make(map[int]*columnar.EncodedTable)
	}
	if enc, ok := d.encCache[blockRows]; ok {
		return enc, nil
	}
	enc, err := columnar.EncodeTable(d.d.Lineitem, blockRows)
	if err != nil {
		return nil, err
	}
	d.encCache[blockRows] = enc
	return enc, nil
}
