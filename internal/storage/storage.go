// Package storage compiles stored (PCOL v2) tables into executable scan
// plans: it prunes blocks against predicate bounds using the format's zone
// maps, derives per-vector skip verdicts for the execution engine, and
// builds the per-core storage-tier views (cache.StorageSet) that price cold
// scans through the full simulated hierarchy — caches, DRAM, and the
// below-DRAM block tier.
//
// The package sits between the columnar codec (block geometry, zone maps,
// encodings) and the execution engine (vector geometry, predicate ops). It
// holds no mutable execution state itself: plans are immutable once built,
// and each core receives its own StorageSet because residency and counters
// are simulation state.
package storage

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/exec"
	"progopt/internal/hw/cache"
)

// Config configures a stored scan: block-tier pricing, the resident-set
// budget, and the two optional scan capabilities.
type Config struct {
	// LatencyCycles is the fixed seek cost of one block fetch.
	LatencyCycles uint64
	// BytesPerCycle is the tier's transfer bandwidth (0 = 1).
	BytesPerCycle uint64
	// ResidentBytes bounds the DRAM-resident encoded bytes (0 = unbounded).
	ResidentBytes uint64
	// SkipScan enables zone-map block pruning: vectors proven empty by the
	// compiled predicate bounds are answered from metadata alone.
	SkipScan bool
	// CompressedScan prices predicate scans over the packed column images
	// (dictionary codes, FoR-packed deltas) instead of the decoded values —
	// fewer simulated bytes move through the hierarchy.
	CompressedScan bool
}

// tierConfig maps the public knobs to the cache layer's pricing.
func (c Config) tierConfig() cache.StorageConfig {
	return cache.StorageConfig{
		LatencyCycles: c.LatencyCycles,
		BytesPerCycle: c.BytesPerCycle,
		BudgetBytes:   c.ResidentBytes,
	}
}

// PackedImage locates a column's packed (encoded) image in the simulated
// address space: Width bytes per row at Base. The image aliases the decoded
// column's logical blocks in the tier.
type PackedImage struct {
	Base  uint64
	Width int
}

// Plan is a compiled stored scan over one driving table.
type Plan struct {
	// Enc is the stored table; Tab its decoded image, bound into the
	// engine's address space (the table the query executes over).
	Enc *columnar.EncodedTable
	Tab *columnar.Table

	// Pruned flags each table block (aligned across columns) that the
	// predicates prove empty. Nil when skip-scanning is off.
	Pruned []bool
	// Skip is Pruned translated to the engine's vector geometry: vector v is
	// skippable iff every block overlapping it is pruned.
	Skip []bool
	// Packed locates each column's packed image; nil when compressed
	// scanning is off.
	Packed map[string]PackedImage

	cfg Config
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// BlocksTotal returns the stored table's block count.
func (p *Plan) BlocksTotal() int { return p.Enc.NumBlocks() }

// BlocksPruned counts blocks the zone maps proved empty.
func (p *Plan) BlocksPruned() int {
	n := 0
	for _, pr := range p.Pruned {
		if pr {
			n++
		}
	}
	return n
}

// VectorsSkipped counts vectors the plan answers from metadata alone.
func (p *Plan) VectorsSkipped() int {
	n := 0
	for _, s := range p.Skip {
		if s {
			n++
		}
	}
	return n
}

// Compile builds the stored-scan plan for a query over the decoded image of
// enc: block pruning and vector skip verdicts from the query's predicate
// ops (when cfg.SkipScan), in the given vector geometry. The decoded table
// must be the query's driving table. Packed images are registered
// separately (ScanPacked; the caller reserves them after all ordinary binds,
// to keep the faithful configuration address-identical to an in-RAM run).
func Compile(enc *columnar.EncodedTable, tab *columnar.Table, q *exec.Query, vectorSize int, cfg Config) (*Plan, error) {
	if enc == nil || tab == nil {
		return nil, fmt.Errorf("storage: Compile needs an encoded table and its decoded image")
	}
	if enc.NumRows() != tab.NumRows() {
		return nil, fmt.Errorf("storage: decoded image has %d rows, stored table %d", tab.NumRows(), enc.NumRows())
	}
	if vectorSize <= 0 {
		return nil, fmt.Errorf("storage: non-positive vector size %d", vectorSize)
	}
	p := &Plan{Enc: enc, Tab: tab, cfg: cfg}
	if cfg.SkipScan && q != nil {
		p.Pruned = pruneBlocks(enc, tab, q)
		p.Skip = skipVectors(p.Pruned, enc.BlockRows(), enc.NumRows(), vectorSize)
	}
	return p, nil
}

// pruneBlocks marks each table block that at least one predicate proves
// empty via its column's zone map. A block any single predicate empties
// yields no qualifying row regardless of the other operators, so pruning is
// sound for arbitrary operator mixes (joins never prune, they only filter
// further).
func pruneBlocks(enc *columnar.EncodedTable, tab *columnar.Table, q *exec.Query) []bool {
	pruned := make([]bool, enc.NumBlocks())
	for _, op := range q.Ops {
		pred, ok := op.(*exec.Predicate)
		if !ok {
			continue
		}
		col := enc.Column(pred.Col.Name())
		if col == nil || tab.Column(pred.Col.Name()) != pred.Col {
			// The predicate reads some other table (e.g. a join filter) or an
			// unstored column — its bounds say nothing about these blocks.
			continue
		}
		for b := range pruned {
			if !pruned[b] && blockPruned(col, b, pred) {
				pruned[b] = true
			}
		}
	}
	return pruned
}

// blockPruned reports whether the predicate's bound excludes every value of
// the column's block, per its zone map.
func blockPruned(col *columnar.EncodedColumn, b int, pred *exec.Predicate) bool {
	if col.Kind() == columnar.Float64 {
		min, max := col.ZoneFloat(b)
		return rangeEmpty(pred.Op, min, max, pred.F)
	}
	min, max := col.ZoneInt(b)
	return rangeEmpty(pred.Op, min, max, pred.I)
}

// rangeEmpty reports whether no value in [min, max] can satisfy `v op
// bound`.
func rangeEmpty[T int64 | float64](op exec.CmpOp, min, max, bound T) bool {
	switch op {
	case exec.LE:
		return min > bound
	case exec.LT:
		return min >= bound
	case exec.GE:
		return max < bound
	case exec.GT:
		return max <= bound
	case exec.EQ:
		return bound < min || bound > max
	}
	return false
}

// skipVectors translates block-granularity pruning to the engine's vector
// geometry: a vector is skippable iff every block overlapping its row range
// is pruned (possibly by different predicates).
func skipVectors(pruned []bool, blockRows, numRows, vectorSize int) []bool {
	numVec := (numRows + vectorSize - 1) / vectorSize
	skip := make([]bool, numVec)
	for v := range skip {
		lo := v * vectorSize
		hi := lo + vectorSize
		if hi > numRows {
			hi = numRows
		}
		ok := true
		for b := lo / blockRows; b*blockRows < hi; b++ {
			if !pruned[b] {
				ok = false
				break
			}
		}
		skip[v] = ok
	}
	return skip
}

// AllocPacked reserves one packed image per stored column through alloc, in
// the stored column order.
func AllocPacked(alloc columnar.Allocator, enc *columnar.EncodedTable) (map[string]PackedImage, error) {
	images := make(map[string]PackedImage, len(enc.Columns()))
	for _, ec := range enc.Columns() {
		w := ec.PackedWidthBytes()
		base, err := alloc.Alloc(ec.Rows() * w)
		if err != nil {
			return nil, err
		}
		images[ec.Name()] = PackedImage{Base: base, Width: w}
	}
	return images, nil
}

// ScanPacked registers the packed images on the plan and points every
// predicate of q over a column of the plan's decoded table at that column's
// image. Predicates over other tables (join filters) keep scanning decoded
// values.
func (p *Plan) ScanPacked(images map[string]PackedImage, q *exec.Query) {
	p.Packed = images
	for _, op := range q.Ops {
		pred, ok := op.(*exec.Predicate)
		if !ok {
			continue
		}
		if img, ok := images[pred.Col.Name()]; ok && p.Tab.Column(pred.Col.Name()) == pred.Col {
			pred.ScanBase, pred.ScanWidth = img.Base, img.Width
		}
	}
}

// newSet builds one core's storage-tier view of the plan: one logical block
// per (column, block) — the unit the tier transfers, costing the block's
// encoded bytes — with the decoded address window and, when present, the
// packed image's window aliased onto it. Every core of a run gets its own
// set over identical geometry, so residency evolves per simulated core and
// stays deterministic.
func (p *Plan) newSet() (*cache.StorageSet, error) {
	s := cache.NewStorageSet(p.cfg.tierConfig())
	blockRows := uint64(p.Enc.BlockRows())
	for _, ec := range p.Enc.Columns() {
		dc := p.Tab.Column(ec.Name())
		if dc == nil {
			return nil, fmt.Errorf("storage: decoded image misses column %q", ec.Name())
		}
		if !dc.Bound() {
			return nil, fmt.Errorf("storage: column %q is not bound", ec.Name())
		}
		base := dc.Base()
		w := uint64(dc.Width())
		var pk PackedImage
		if p.Packed != nil {
			pk = p.Packed[ec.Name()]
		}
		for b := 0; b < ec.NumBlocks(); b++ {
			id := s.AddBlock(uint64(ec.BlockEncodedBytes(b)))
			lo := uint64(b) * blockRows
			rows := uint64(ec.Block(b).Rows)
			if err := s.AddRange(base+lo*w, rows*w, id); err != nil {
				return nil, err
			}
			if pk.Width > 0 {
				pw := uint64(pk.Width)
				if err := s.AddRange(pk.Base+lo*pw, rows*pw, id); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// NewViews builds the per-core stored-scan state of one run over n cores:
// each core's own tier view (newSet, residency starting cold), all sharing
// the plan's skip verdicts. Two runs never share a view, so neither can see
// the other's residency.
func (p *Plan) NewViews(n int) ([]*exec.StorageScan, error) {
	views := make([]*exec.StorageScan, n)
	for i := range views {
		set, err := p.newSet()
		if err != nil {
			return nil, err
		}
		views[i] = &exec.StorageScan{Skip: p.Skip, Set: set}
	}
	return views, nil
}
