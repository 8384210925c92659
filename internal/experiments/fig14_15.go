package experiments

import (
	"fmt"
	"sort"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

// Fig14 reproduces Figure 14: an expensive selection combined with a
// foreign-key join, executed in both operator orders over data sets of
// decreasing sortedness (windowed Knuth shuffle at 1 tuple, one cache line,
// 100 tuples, 1K tuples, L1-, L2-, L3-sized windows, and fully random).
// Runtime and L3 cache misses both cross over once the shuffle distance
// exceeds the upper cache levels.
func Fig14(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 128 * cfg.VectorSize
	if cfg.Quick {
		// Keep the orders table beyond the upper cache levels at quick scale:
		// the batch kernels gather join keys op-major, and a cache-resident
		// build side would erase the locality contrast the figure measures.
		rows = 96 * cfg.VectorSize
	}
	prof := cpu.ScaledXeon()
	// Shuffle windows in tuples of the 8-byte orderkey column.
	type win struct {
		label  string
		tuples int
	}
	wins := []win{
		{"1T", 1},
		{"CL", prof.Hierarchy.L1.LineSize / 8},
		{"100T", 100},
		{"L1", prof.Hierarchy.L1.SizeBytes / 8},
		{"1KT", 1000},
		{"L2", prof.Hierarchy.L2.SizeBytes / 8},
		{"L3", prof.Hierarchy.L3.SizeBytes / 8},
		{"Mem", rows},
	}
	// The scaled L1 covers fewer tuples than the paper's (2 KB vs 32 KB), so
	// keep the axis sorted by window size rather than by the paper's labels.
	sort.Slice(wins, func(a, b int) bool { return wins[a].tuples < wins[b].tuples })
	if cfg.Quick {
		wins = []win{{"1T", 1}, {"L1", prof.Hierarchy.L1.SizeBytes / 8}, {"Mem", rows}}
	}
	d0, err := cachedDataset(rows, cfg.Seed)
	if err != nil {
		return nil, err
	}

	repRT := &Report{
		ID:      "fig14a",
		Title:   "Exploitation of sortedness: runtime",
		Columns: []string{"sortedness", "selection_first_ms", "join_first_ms"},
		Notes: []string{
			fmt.Sprintf("%d lineitems; expensive selection (sel 0.5) + FK join to orders (filter sel 0.5)", rows),
			"windowed Knuth shuffle over the orderkey-sorted (co-clustered) order",
		},
	}
	repCM := &Report{
		ID:      "fig14b",
		Title:   "Exploitation of sortedness: L3 cache misses",
		Columns: []string{"sortedness", "selection_first_l3miss", "join_first_l3miss"},
	}

	for _, w := range wins {
		d := cachedShuffledDataset(d0, rows, cfg.Seed, w.tuples, cfg.Seed+int64(w.tuples))
		r, err := newRig(prof, cfg)
		if err != nil {
			return nil, err
		}
		// Expensive selection: quantity <= 25 has selectivity ~0.5; the
		// extra cost models a string match / UDF.
		sel := &exec.Predicate{
			Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 25,
			ExtraCostInstr: 40, Label: "expensive-sel",
		}
		dateCut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), 0.5)
		filter := &exec.Predicate{Col: d.Orders.Column("o_orderdate"), Op: exec.LE, I: int64(dateCut)}
		join, err := exec.NewFKJoin(r.eng.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, filter, "fk-orders")
		if err != nil {
			return nil, err
		}
		q := &exec.Query{Table: d.Lineitem, Ops: []exec.Op{sel, join}}
		if err := r.bind(q); err != nil {
			return nil, err
		}

		measure := func(perm []int) (float64, uint64, error) {
			res, err := r.measureBaseline(q, perm)
			if err != nil {
				return 0, 0, err
			}
			return res.Millis, res.Counters.Get(pmu.L3Miss), nil
		}
		selMs, selMiss, err := measure([]int{0, 1})
		if err != nil {
			return nil, err
		}
		joinMs, joinMiss, err := measure([]int{1, 0})
		if err != nil {
			return nil, err
		}
		repRT.Rows = append(repRT.Rows, []string{w.label, fmtMs(selMs), fmtMs(joinMs)})
		repCM.Rows = append(repCM.Rows, []string{w.label,
			fmt.Sprintf("%d", selMiss), fmt.Sprintf("%d", joinMiss)})
	}
	return []*Report{repRT, repCM}, nil
}

// Fig15 reproduces Figure 15: joining lineitem with orders and part in both
// orders over a sweep of the joins' filter selectivities. Orders is eight
// times larger than part, yet joining orders first is always faster because
// lineitem and orders are co-clustered — the size-based heuristic is wrong
// and the sampled cache misses reveal it.
func Fig15(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 128 * cfg.VectorSize
	if cfg.Quick {
		// The quick scale still has to keep the part table (rows/30 entries of
		// bucket array + filter column) well beyond the scaled L2: the batch
		// kernels probe the build side op-major, so a cache-resident part
		// table would erase the random-access penalty the figure measures.
		rows = 96 * cfg.VectorSize
	}
	d, err := cachedDataset(rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sels := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if cfg.Quick {
		sels = []float64{0.2, 0.8}
	}
	repRT := &Report{
		ID:      "fig15a",
		Title:   "Foreign-key join order: runtime",
		Columns: []string{"join_sel_pct", "orders_first_ms", "part_first_ms"},
		Notes: []string{
			fmt.Sprintf("%d lineitems; orders %d rows (co-clustered), part %d rows (random access)",
				rows, d.NumOrders, d.NumParts),
		},
	}
	repCM := &Report{
		ID:      "fig15b",
		Title:   "Foreign-key join order: L3 cache misses",
		Columns: []string{"join_sel_pct", "orders_first_l3miss", "part_first_l3miss"},
	}
	for _, sel := range sels {
		r, err := newRig(cpu.ScaledXeon(), cfg)
		if err != nil {
			return nil, err
		}
		dateCut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), sel)
		oFilter := &exec.Predicate{Col: d.Orders.Column("o_orderdate"), Op: exec.LE, I: int64(dateCut)}
		oJoin, err := exec.NewFKJoin(r.eng.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, oFilter, "join-orders")
		if err != nil {
			return nil, err
		}
		sizeCut := int64(float64(50) * sel)
		pFilter := &exec.Predicate{Col: d.Part.Column("p_size"), Op: exec.LE, I: sizeCut}
		pJoin, err := exec.NewFKJoin(r.eng.CPU(), d.Lineitem.Column("l_partkey"), d.NumParts, pFilter, "join-part")
		if err != nil {
			return nil, err
		}
		q := &exec.Query{Table: d.Lineitem, Ops: []exec.Op{oJoin, pJoin}}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		measure := func(perm []int) (float64, uint64, error) {
			res, err := r.measureBaseline(q, perm)
			if err != nil {
				return 0, 0, err
			}
			return res.Millis, res.Counters.Get(pmu.L3Miss), nil
		}
		ordMs, ordMiss, err := measure([]int{0, 1})
		if err != nil {
			return nil, err
		}
		partMs, partMiss, err := measure([]int{1, 0})
		if err != nil {
			return nil, err
		}
		repRT.Rows = append(repRT.Rows, []string{fmtF(sel * 100), fmtMs(ordMs), fmtMs(partMs)})
		repCM.Rows = append(repCM.Rows, []string{fmtF(sel * 100),
			fmt.Sprintf("%d", ordMiss), fmt.Sprintf("%d", partMiss)})
	}
	return []*Report{repRT, repCM}, nil
}
