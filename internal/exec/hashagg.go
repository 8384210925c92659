package exec

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
)

// GroupBy is a hash-based grouping aggregate over the qualifying tuples of a
// query: SELECT group, SUM(value), COUNT(*) ... GROUP BY group. It extends
// the engine beyond pure selections — the paper's future work (§7) names
// integrating further relational operators — and exercises the cache
// substrate with the random-write pattern of hash-table maintenance.
type GroupBy struct {
	// GroupCol is the grouping key column (integer-kind).
	GroupCol *columnar.Column
	// ValueCol is the summed column.
	ValueCol *columnar.Column

	tableBase uint64
	mask      uint64
	domain    KeyDomain
}

// KeyDomain is what one scan of a group-key column proves about its keys.
type KeyDomain struct {
	// Groups is the expected number of distinct groups the hash tables are
	// sized for: the domain width max−min+1, bounded by the row count.
	Groups int
	// Dense reports that the width is within the row count and did not
	// overflow, so every key lies in [Min, Min+Groups).
	Dense bool
	// Min is the smallest key.
	Min int64
}

// ScanKeyDomain scans the group-key column for its domain. A width bounded
// by the row count lets the host accumulator index by key − Min; sizing from
// row count alone (or a hard-coded constant) would collide pathologically on
// wide domains.
func ScanKeyDomain(c *columnar.Column) (KeyDomain, error) {
	n := c.Len()
	if n == 0 {
		return KeyDomain{}, fmt.Errorf("exec: group column %q is empty", c.Name())
	}
	if err := checkGroupKind(c); err != nil {
		return KeyDomain{}, err
	}
	min, max := c.IntRange()
	width := max - min + 1
	if width <= 0 || width > int64(n) {
		return KeyDomain{Groups: n, Min: min}, nil
	}
	return KeyDomain{Groups: int(width), Dense: true, Min: min}, nil
}

// checkGroupKind rejects a group column that is not integer-kind.
func checkGroupKind(c *columnar.Column) error {
	switch c.Kind() {
	case columnar.Int64, columnar.Int32, columnar.Date:
		return nil
	}
	return fmt.Errorf("exec: group column %q must be integer-kind, is %v", c.Name(), c.Kind())
}

// groupSlotBytes models one hash-table slot (key, sum, count).
const groupSlotBytes = 24

// NewGroupBy builds the aggregate and reserves its hash-table region sized
// for the domain's expected number of distinct groups. A dense domain must be
// the group column's own (ScanKeyDomain); any other names only the estimate.
func NewGroupBy(alloc columnar.Allocator, group, value *columnar.Column, dom KeyDomain) (*GroupBy, error) {
	if group == nil || value == nil {
		return nil, fmt.Errorf("exec: group-by needs group and value columns")
	}
	if err := checkGroupKind(group); err != nil {
		return nil, err
	}
	if dom.Groups <= 0 {
		return nil, fmt.Errorf("exec: non-positive expected group count %d", dom.Groups)
	}
	buckets := uint64(1)
	for buckets < 2*uint64(dom.Groups) {
		buckets <<= 1
	}
	base, err := alloc.Alloc(int(buckets) * groupSlotBytes)
	if err != nil {
		return nil, err
	}
	return &GroupBy{GroupCol: group, ValueCol: value, tableBase: base, mask: buckets - 1, domain: dom}, nil
}

// Group is one output row of a GroupBy.
type Group struct {
	// Key is the group key.
	Key int64
	// Sum is the aggregated value.
	Sum float64
	// Count is the number of contributing tuples.
	Count int64
}

// GroupResult is the grouped output plus execution metrics.
type GroupResult struct {
	// Groups are the output rows, sorted by key.
	Groups []Group
	// Result carries cardinality/cycles/counters of the run.
	Result
}

// groupUpdateCostInstr is the hash-table maintenance cost per qualifying
// tuple (hash, compare key, add, increment).
const groupUpdateCostInstr = 6

// groupMergeCostInstr is the per-slot cost of merging one partial hash-table
// slot into the final table at the barrier of a parallel grouped aggregation
// (add sum, add count, possibly insert).
const groupMergeCostInstr = 4

// groupMergeChunk is how many partial slots the merge barrier gathers into
// one simulated load run: a vector's worth, like the scan's own gathers.
const groupMergeChunk = 1024

// slotAddr returns the simulated address of the key's hash-table slot.
func (g *GroupBy) slotAddr(key int64) uint64 {
	bucket := (uint64(key) * groupHashMul) & g.mask
	return g.tableBase + bucket*groupSlotBytes
}

// touch simulates the hash-table slot access of one aggregate update (the
// read-modify-write of key, sum, count) on c. Column loads are the caller's:
// per-row in the scalar loop, gathered per selection in the batch path.
func (g *GroupBy) touch(c *cpu.CPU, row int) {
	c.Load(g.slotAddr(g.GroupCol.Int64At(row)))
}

// fold reduces one morsel's survivors into acc as rows of core's partial
// table. Split from touch so a parallel run can simulate per-core partial
// tables while reducing values in global row order (deterministic,
// bit-identical sums across worker counts).
func (g *GroupBy) fold(acc *groupTable, sel []int32, core int) {
	for _, row := range sel {
		acc.add(g.GroupCol.Int64At(int(row)), g.ValueCol.Float64At(int(row)), core)
	}
}

// GroupVector runs the query's operators over rows [lo, hi) and simulates
// the hash-aggregate update for each survivor in g's table, under the
// engine's execution mode. It returns the qualifying selection in ascending
// row order (valid until the next batch call on e); the caller folds it into
// its accumulator via g's fold, so simulation placement (which core's cache
// sees the hash table) and value reduction order are decoupled.
func (e *Engine) GroupVector(q *Query, g *GroupBy, lo, hi int) ([]int32, error) {
	if err := e.checkVector(q, lo, hi); err != nil {
		return nil, err
	}
	if e.skipVector(lo, hi) {
		return nil, nil
	}
	c := e.cpu
	ops := q.Ops
	loopSite := len(ops)
	if e.scalar {
		if err := e.ensureSel(hi - lo); err != nil {
			return nil, err
		}
		sel := e.selA[:0]
		for row := lo; row < hi; row++ {
			pass := true
			for si := 0; si < len(ops); si++ {
				ok := ops[si].Eval(c, row)
				c.CondBranch(si, !ok)
				if !ok {
					pass = false
					break
				}
			}
			if pass {
				c.Load(g.GroupCol.Addr(row))
				c.Load(g.ValueCol.Addr(row))
				c.Exec(groupUpdateCostInstr)
				g.touch(c, row)
				sel = append(sel, int32(row))
			}
			c.Exec(loopOverheadInstr)
			c.CondBranch(loopSite, true)
		}
		return sel, nil
	}
	sel, err := e.batchSelect(q, lo, hi)
	if err != nil {
		return nil, err
	}
	c.LoadSel(g.GroupCol.Base(), g.GroupCol.Width(), sel)
	c.LoadSel(g.ValueCol.Base(), g.ValueCol.Width(), sel)
	// Hash-table slot touches: a data-dependent address stream, gathered and
	// simulated as one run (repeated keys collapse into counted touches
	// exactly as repeated per-row Loads would).
	addrs := c.AddrBuf(len(sel))
	for _, r := range sel {
		addrs = append(addrs, g.slotAddr(g.GroupCol.Int64At(int(r))))
	}
	c.LoadAddrs(addrs)
	c.Exec(groupUpdateCostInstr * len(sel))
	c.Exec(loopOverheadInstr * (hi - lo))
	c.CondBranchN(loopSite, true, hi-lo)
	return sel, nil
}
