package exec

import (
	"fmt"
	"math/bits"
	"sort"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
)

// This file implements the order-aware consumer of the pipeline: a Top-K /
// OrderBy operator over the qualifying tuples of a query. Like GroupBy it
// extends the engine beyond pure selections (§7's "further relational
// operators") and it is the canonical cache-behavior stress: sorting's
// address stream mixes a sequential run-buffer append with the
// data-dependent pointer chase of heap maintenance, exactly the two access
// shapes the Manegold cost models and the PMU-feedback machinery reason
// about.
//
// Two physical strategies share one logical contract:
//
//   - bounded-heap Top-K when a limit is present: each core keeps a K-slot
//     binary heap ordered worst-at-root, so a qualifying tuple costs one
//     root compare and displacing tuples pay a log K sift — the
//     cache-conscious K << N path;
//   - run-generating sort otherwise: survivors append to a sequential run
//     buffer; every full run of runLen entries is sorted in place (one
//     re-stream of the run plus n log n compare work), and the barrier
//     merge streams all sorted runs into the output — textbook external
//     merge sort scaled to the simulated hierarchy.
//
// Simulation and host bookkeeping are fused per insert but follow the PR 4
// run protocol: batch kernels gather each vector's data-dependent heap
// touches and hand them to cpu.LoadAddrs in one call (Hierarchy.LoadStream
// underneath), run-buffer appends collapse into cpu.LoadSeq runs, and the
// scalar row loop issues the same addresses row-at-a-time — identical load
// and instruction totals, only the interleaving differs.
//
// The host-side result never depends on scheduling: the comparator is a
// total order (sort keys, then the global row id as tie-break), so the
// merged per-core states reduce to one canonical output — bit-identical
// across worker counts, execution modes, and the scalar row loop, and equal
// to a stable reference sort of the qualifying rows.

// SortKey is one ordering key of a Sort.
type SortKey struct {
	// Col is the key column (any supported kind); it must belong to the
	// query's driving table and be bound before execution.
	Col *columnar.Column
	// Desc orders this key descending.
	Desc bool
}

// Sort is a compiled OrderBy/Limit consumer: the ordering keys, the optional
// Top-K bound, and the simulated regions (heap, run buffer, output) the
// operator's address streams touch. One Sort is compiled per core so a
// parallel run maintains private partial state in its own cache hierarchy;
// per-run host state lives in SortRun.
type Sort struct {
	// Keys are the ordering keys in precedence order; ties break by global
	// row id, making the output order total and deterministic.
	Keys []SortKey
	// Limit is the Top-K bound (output rows); negative means no limit (full
	// sort). Limit 0 is valid and produces no rows.
	Limit int
	// Val, when non-nil, is evaluated per emitted row and carried through
	// the sort as the row's Value (the plan's Sum expression).
	Val *Aggregate

	slotBytes int
	runLen    int
	nRows     int
	heapBase  uint64
	runBase   uint64
	outBase   uint64
}

// Sort cost constants (instructions charged per structural step, in the
// spirit of groupUpdateCostInstr).
const (
	// sortPushCostInstr is one slot write (store row id + normalized keys).
	sortPushCostInstr = 4
	// sortCmpCostInstr is one key comparison against a loaded slot.
	sortCmpCostInstr = 2
	// sortSwapCostInstr is one slot exchange during a sift.
	sortSwapCostInstr = 3
	// sortRunCmpInstr is the per-element-per-level compare work of sorting
	// one run in place.
	sortRunCmpInstr = 4
	// sortMergeCostInstr is the per-element cost of folding a remote
	// partial state into the coordinator's at the barrier.
	sortMergeCostInstr = 4
	// sortEmitCostInstr is the per-row cost of materializing the ordered
	// output.
	sortEmitCostInstr = 2
)

// NewSort builds the operator and reserves its simulated regions: a K-slot
// heap when limit >= 0, an nRows-slot run buffer otherwise, and the ordered
// output buffer. Slots are normalized to 8 bytes per field (row id, each
// key, the carried value), the width the comparator actually touches.
func NewSort(alloc columnar.Allocator, keys []SortKey, limit int, val *Aggregate, nRows, runLen int) (*Sort, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: sort needs at least one key")
	}
	for i, k := range keys {
		if k.Col == nil {
			return nil, fmt.Errorf("exec: nil sort key column at position %d", i)
		}
		switch k.Col.Kind() {
		case columnar.Int64, columnar.Int32, columnar.Date, columnar.Float64:
		default:
			return nil, fmt.Errorf("exec: sort key %q has unsupported kind %v", k.Col.Name(), k.Col.Kind())
		}
	}
	if nRows <= 0 {
		return nil, fmt.Errorf("exec: non-positive sort input size %d", nRows)
	}
	if runLen <= 0 {
		return nil, fmt.Errorf("exec: non-positive sort run length %d", runLen)
	}
	s := &Sort{Keys: keys, Limit: limit, Val: val, runLen: runLen, nRows: nRows}
	s.slotBytes = 8 * (1 + len(keys))
	if val != nil {
		s.slotBytes += 8
	}
	outSlots := nRows
	if limit >= 0 {
		heapSlots := min(limit, nRows)
		outSlots = heapSlots
		if heapSlots > 0 {
			base, err := alloc.Alloc(heapSlots * s.slotBytes)
			if err != nil {
				return nil, err
			}
			s.heapBase = base
		}
	} else {
		base, err := alloc.Alloc(nRows * s.slotBytes)
		if err != nil {
			return nil, err
		}
		s.runBase = base
	}
	if outSlots > 0 {
		base, err := alloc.Alloc(outSlots * s.slotBytes)
		if err != nil {
			return nil, err
		}
		s.outBase = base
	}
	return s, nil
}

// heapSlot returns the simulated address of heap slot i.
func (s *Sort) heapSlot(i int) uint64 { return s.heapBase + uint64(i)*uint64(s.slotBytes) }

// runSlot returns the simulated address of run-buffer slot i.
func (s *Sort) runSlot(i int) uint64 { return s.runBase + uint64(i)*uint64(s.slotBytes) }

// less reports whether row a orders strictly before row b in the output:
// key columns in precedence order, then the global row id — a total order,
// so the result is unique regardless of which core saw which row.
func (s *Sort) less(a, b int32) bool {
	for _, k := range s.Keys {
		if k.Col.Kind() == columnar.Float64 {
			va, vb := k.Col.F64()[a], k.Col.F64()[b]
			if va != vb {
				return (va < vb) != k.Desc
			}
			continue
		}
		va, vb := k.Col.Int64At(int(a)), k.Col.Int64At(int(b))
		if va != vb {
			return (va < vb) != k.Desc
		}
	}
	return a < b
}

// SortedRow is one emitted row of the ordered output.
type SortedRow struct {
	// Row is the driving-table row id.
	Row int64
	// Keys holds the sort-key values in key order (integer kinds widened).
	Keys []float64
	// Value is Sort.Val evaluated for the row (0 without a carried value).
	Value float64
}

// SortRun is the per-core, per-run host state of a Sort: the bounded heap
// or the run buffer this core's qualifying tuples accumulated into. A fresh
// SortRun is attached to each participating engine before a run
// (Engine.SetSortRun) and consumed by FinalizeSort after the barrier.
type SortRun struct {
	s *Sort
	// heap holds row ids worst-at-root (Top-K mode).
	heap []int32
	// rows holds appended row ids, sorted in place per full run of
	// s.runLen (full-sort mode); pending counts rows past the last sorted
	// run boundary.
	rows    []int32
	pending int
}

// NewSortRun builds an empty run state for the given compiled Sort. A Top-K
// heap is allocated at its final size, min(Limit, rows), here.
func NewSortRun(s *Sort) *SortRun {
	if s == nil {
		return nil
	}
	r := &SortRun{s: s}
	if s.Limit > 0 {
		r.heap = make([]int32, 0, min(s.Limit, s.nRows))
	}
	return r
}

// maxPushTouches bounds the heap slots one pushTopK touches: the slot it
// writes or the root it compares, then at most two per level of a heap of
// cap(r.heap) rows — the sift-up of the fill phase visits one per level.
func (r *SortRun) maxPushTouches() int { return 1 + 2*bits.Len(uint(cap(r.heap))) }

// Add consumes one batch kernel's survivor selection (ascending row ids):
// host state updates plus the PR 4-protocol simulation — heap touches
// gathered into one LoadAddrs stream, run-buffer appends as LoadSeq runs.
func (r *SortRun) Add(c *cpu.CPU, sel []int32) {
	if len(sel) == 0 {
		return
	}
	s := r.s
	if s.Limit >= 0 {
		if s.Limit == 0 {
			return
		}
		// One batch's data-dependent heap touches, gathered in the core's
		// address scratch for a single LoadAddrs call.
		scratch := c.AddrBuf(len(sel) * r.maxPushTouches())
		instr := 0
		for _, row := range sel {
			var d int
			scratch, d = r.pushTopK(row, scratch)
			instr += d
		}
		c.LoadAddrs(scratch)
		c.Exec(instr)
		return
	}
	for len(sel) > 0 {
		n := min(s.runLen-r.pending, len(sel))
		start := len(r.rows)
		r.rows = append(r.rows, sel[:n]...)
		c.LoadSeq(s.runSlot(start), s.slotBytes, n)
		c.Exec(sortPushCostInstr * n)
		r.pending += n
		sel = sel[n:]
		if r.pending == s.runLen {
			r.flushRun(c)
		}
	}
}

// AddOne is the scalar row loop's form of Add: the same touches and
// instruction charges, issued per qualifying row.
func (r *SortRun) AddOne(c *cpu.CPU, row int) {
	s := r.s
	if s.Limit >= 0 {
		if s.Limit == 0 {
			return
		}
		scratch, instr := r.pushTopK(int32(row), c.AddrBuf(r.maxPushTouches()))
		c.LoadAddrs(scratch)
		c.Exec(instr)
		return
	}
	i := len(r.rows)
	r.rows = append(r.rows, int32(row))
	c.Load(s.runSlot(i))
	c.Exec(sortPushCostInstr)
	r.pending++
	if r.pending == s.runLen {
		r.flushRun(c)
	}
}

// pushTopK updates the bounded heap with row, appending each slot touch the
// update performs to scratch (in access order) and returning the
// instruction charge. The heap keeps the K rows that order earliest, with
// the worst kept row at the root.
func (r *SortRun) pushTopK(row int32, scratch []uint64) ([]uint64, int) {
	s := r.s
	h := r.heap
	instr := 0
	if len(h) < min(s.Limit, s.nRows) {
		i := len(h)
		h = append(h, row)
		scratch = append(scratch, s.heapSlot(i))
		instr += sortPushCostInstr
		for i > 0 {
			p := (i - 1) / 2
			scratch = append(scratch, s.heapSlot(p))
			instr += sortCmpCostInstr
			if !s.less(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			instr += sortSwapCostInstr
			i = p
		}
		r.heap = h
		return scratch, instr
	}
	// Full heap: one root compare; only displacing rows pay the sift-down.
	scratch = append(scratch, s.heapSlot(0))
	instr += sortCmpCostInstr
	if !s.less(row, h[0]) {
		return scratch, instr
	}
	h[0] = row
	instr += sortPushCostInstr
	i := 0
	for {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) {
				scratch = append(scratch, s.heapSlot(child))
				instr += sortCmpCostInstr
				if s.less(h[worst], h[child]) {
					worst = child
				}
			}
		}
		if worst == i {
			break
		}
		h[i], h[worst] = h[worst], h[i]
		instr += sortSwapCostInstr
		i = worst
	}
	return scratch, instr
}

// flushRun sorts the tail run of the run buffer in place: the host sort
// plus the simulated in-cache pass — one re-stream of the run's slots and
// n log n compare work.
func (r *SortRun) flushRun(c *cpu.CPU) {
	n := r.pending
	if n == 0 {
		return
	}
	start := len(r.rows) - n
	run := r.rows[start:]
	sort.Slice(run, func(i, j int) bool { return r.s.less(run[i], run[j]) })
	c.LoadSeq(r.s.runSlot(start), r.s.slotBytes, n)
	c.Exec(sortRunCmpInstr * n * log2ceil(n))
	r.pending = 0
}

// log2ceil returns ceil(log2(n)) for n >= 1 (0 for n <= 1).
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// FinalizeSort merges every core's partial state on the coordinator core
// (runs[coord]) after the scan barrier and emits the canonical ordered
// output. In Top-K mode the coordinator reads each remote heap slot and
// compares it against its own root; in full-sort mode it sorts each
// state's tail run, streams every sorted run, and pays the k-way merge
// compare work. Emission streams the output buffer once. The caller
// measures the coordinator's cycle and counter deltas and extends the
// query's makespan by them — every core waits at the barrier for the merge,
// exactly like the grouped aggregation's.
//
// The returned rows are the unique total-order result: merging per-core
// partial states can never change it, so output is bit-identical across
// worker counts and scheduling histories.
func FinalizeSort(c *cpu.CPU, coord int, runs []*SortRun) []SortedRow {
	s := runs[coord].s
	var all []int32
	if s.Limit >= 0 {
		total := 0
		for _, r := range runs {
			total += len(r.heap)
		}
		all = make([]int32, 0, total)
		all = append(all, runs[coord].heap...)
		for w, r := range runs {
			if w == coord {
				continue
			}
			for i := range r.heap {
				c.Load(r.s.heapSlot(i))
				c.Load(s.heapSlot(0))
				c.Exec(sortMergeCostInstr)
			}
			all = append(all, r.heap...)
		}
		sort.Slice(all, func(i, j int) bool { return s.less(all[i], all[j]) })
		if len(all) > s.Limit {
			all = all[:s.Limit]
		}
	} else {
		nRuns := 0
		total := 0
		for _, r := range runs {
			total += len(r.rows)
		}
		all = make([]int32, 0, total)
		for _, r := range runs {
			if r.pending > 0 {
				// The merge phase sorts the tail run it is about to consume.
				r.flushRun(c)
			}
			if len(r.rows) == 0 {
				continue
			}
			c.LoadSeq(r.s.runSlot(0), r.s.slotBytes, len(r.rows))
			nRuns += (len(r.rows) + r.s.runLen - 1) / r.s.runLen
			all = append(all, r.rows...)
		}
		// Host side a single comparison sort; simulation side the k-way
		// merge of nRuns sorted runs — same unique result, the comparator
		// being total.
		sort.Slice(all, func(i, j int) bool { return s.less(all[i], all[j]) })
		c.Exec(sortMergeCostInstr * len(all) * log2ceil(max(nRuns, 2)))
	}
	if len(all) > 0 {
		c.LoadSeq(s.outBase, s.slotBytes, len(all))
		c.Exec(sortEmitCostInstr * len(all))
	}
	out := make([]SortedRow, len(all))
	for i, row := range all {
		sr := SortedRow{Row: int64(row), Keys: make([]float64, len(s.Keys))}
		for k, key := range s.Keys {
			sr.Keys[k] = key.Col.Float64At(int(row))
		}
		if s.Val != nil {
			sr.Value = s.Val.F(int(row))
		}
		out[i] = sr
	}
	return out
}
