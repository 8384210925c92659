package experiments

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/storage"
	"progopt/internal/tpch"
)

// ExtStorage measures the stored-table subsystem: a selective Q6-shaped scan
// over the PCOL v2 lineitem image with the below-DRAM block tier priced in.
// Three questions, three tables:
//
//   - How does cold-scan time grow as the resident-set budget shrinks below
//     the scan's working set, with and without zone-map skipping?
//   - How much does the format compress each column, and how many blocks do
//     zone maps prune for a selective predicate over sorted data?
//   - How many fewer simulated bytes does the compressed (packed-image)
//     predicate scan move through the memory hierarchy?
//
// Every cell re-runs the identical plan from a cold tier; answers are
// verified equal across all configurations, and the zone-map run must prune
// at least half the blocks (the data is shipdate-sorted and the predicate
// keeps ~10%).
func ExtStorage(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 64 * cfg.VectorSize
	if cfg.Quick {
		rows = 24 * cfg.VectorSize
	}
	blockRows := 4 * cfg.VectorSize

	d, err := cachedDataset(rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	d = d.ReorderLineitem(tpch.OrderingShipdateSorted, cfg.Seed+1)
	cut := tpch.QuantileInt32(d.Lineitem.Column("l_shipdate"), 0.10)
	enc, err := columnar.EncodeTable(d.Lineitem, blockRows)
	if err != nil {
		return nil, err
	}

	// One block of each column the scan reads (three predicate columns plus
	// the aggregate's second input): what the stream holds to read nothing
	// ahead. The budgets run from three such blocks down to one, so the
	// rows show how deep the stream reads ahead.
	ws := uint64(0)
	for _, name := range []string{"l_shipdate", "l_quantity", "l_discount", "l_extendedprice"} {
		ws += uint64(enc.Column(name).BlockEncodedBytes(0))
	}
	budgets := []uint64{0, 3 * ws, 2 * ws, 3 * ws / 2, ws}

	sweep := &Report{
		ID:      "ext-storage",
		Title:   "Extension: stored PCOL v2 scan — resident-set budget v. cold-scan time, zone maps on/off",
		Columns: []string{"budget_kb", "kcyc_full", "kcyc_zonemap", "fetched_full_kb", "fetched_zonemap_kb", "evictions_full"},
		Notes: []string{
			fmt.Sprintf("%d lineitems shipdate-sorted, %d-row blocks; shipdate<=p10 + discount>=0.05 + quantity<24, sum(price*disc)", rows, blockRows),
			fmt.Sprintf("tier: 400 cyc per column block + 8 B/cyc; one block of the 4 read columns ~%d KB", ws/1024),
			"budget 0 = unbounded; the stream reads ahead what the budget holds beyond the block in use: two blocks hide the tier, at one each block waits for the last vector over the one before",
			"zone maps answer pruned vectors from metadata, so tight budgets hurt the full scan far more",
		},
	}

	var refQ int64
	var refSum float64
	var prunedInfo *storage.Plan
	var cycFullTight, cycFullUnbounded uint64
	for bi, budget := range budgets {
		row := []string{fmt.Sprintf("%d", budget/1024)}
		if budget == 0 {
			row[0] = "unbounded"
		}
		var cells [2]storedCell
		for si, skip := range []bool{false, true} {
			scfg := storage.Config{LatencyCycles: 400, BytesPerCycle: 8, ResidentBytes: budget, SkipScan: skip}
			cell, err := runStored(cfg, enc, d, cut, scfg)
			if err != nil {
				return nil, err
			}
			if bi == 0 && !skip {
				refQ, refSum = cell.res.Qualifying, cell.res.Sum
			} else if cell.res.Qualifying != refQ || cell.res.Sum != refSum {
				return nil, fmt.Errorf("experiments: stored scan answer diverges at budget=%d skip=%v", budget, skip)
			}
			if skip && prunedInfo == nil {
				prunedInfo = cell.plan
				if cell.plan.BlocksPruned()*2 < cell.plan.BlocksTotal() {
					return nil, fmt.Errorf("experiments: zone maps pruned %d/%d blocks, expected at least half",
						cell.plan.BlocksPruned(), cell.plan.BlocksTotal())
				}
			}
			cells[si] = cell
		}
		if budget == 0 {
			cycFullUnbounded = cells[0].res.Cycles
		}
		cycFullTight = cells[0].res.Cycles
		row = append(row,
			fmt.Sprintf("%d", cells[0].res.Cycles/1000), fmt.Sprintf("%d", cells[1].res.Cycles/1000),
			fmt.Sprintf("%d", cells[0].cnt.BytesFetched/1024),
			fmt.Sprintf("%d", cells[1].cnt.BytesFetched/1024),
			fmt.Sprintf("%d", cells[0].cnt.Evictions))
		sweep.Rows = append(sweep.Rows, row)
	}
	if cycFullTight <= cycFullUnbounded {
		return nil, fmt.Errorf("experiments: tightest budget (%d cycles) not slower than unbounded (%d)",
			cycFullTight, cycFullUnbounded)
	}
	sweep.Notes = append(sweep.Notes, fmt.Sprintf("zone maps pruned %d/%d blocks (%d vectors skipped)",
		prunedInfo.BlocksPruned(), prunedInfo.BlocksTotal(), prunedInfo.VectorsSkipped()))

	compress := &Report{
		ID:      "ext-storage",
		Title:   "Extension: PCOL v2 per-column compression",
		Columns: []string{"column", "encoding", "plain_kb", "encoded_kb", "ratio"},
		Notes:   []string{"frame-of-reference bit-packs narrow ranges; dictionary encodes low-cardinality columns"},
	}
	for _, ec := range enc.Columns() {
		compress.Rows = append(compress.Rows, []string{
			ec.Name(), ec.Encoding().String(),
			fmt.Sprintf("%d", ec.PlainBytes()/1024),
			fmt.Sprintf("%d", ec.EncodedBytes()/1024),
			fmt.Sprintf("%.2f", float64(ec.PlainBytes())/float64(ec.EncodedBytes())),
		})
	}
	compress.Rows = append(compress.Rows, []string{
		"total", "-",
		fmt.Sprintf("%d", enc.PlainBytes()/1024),
		fmt.Sprintf("%d", enc.EncodedBytes()/1024),
		fmt.Sprintf("%.2f", float64(enc.PlainBytes())/float64(enc.EncodedBytes())),
	})

	// Compressed predicate scans: identical answers, fewer lines through the
	// simulated memory system.
	packed := &Report{
		ID:      "ext-storage",
		Title:   "Extension: predicate scans over packed images v. decoded values",
		Columns: []string{"scan", "ms", "mem_lines", "qualifying"},
		Notes:   []string{"mem_lines = cache lines fetched from simulated DRAM (PMU mem_access)"},
	}
	var memPlain, memPacked uint64
	for _, compressed := range []bool{false, true} {
		scfg := storage.Config{LatencyCycles: 400, BytesPerCycle: 8, CompressedScan: compressed}
		cell, err := runStored(cfg, enc, d, cut, scfg)
		if err != nil {
			return nil, err
		}
		if cell.res.Qualifying != refQ || cell.res.Sum != refSum {
			return nil, fmt.Errorf("experiments: compressed-scan answer diverges")
		}
		label := "decoded"
		if compressed {
			label = "packed"
			memPacked = cell.res.Counters.Get(pmu.MemAccess)
		} else {
			memPlain = cell.res.Counters.Get(pmu.MemAccess)
		}
		packed.Rows = append(packed.Rows, []string{
			label, fmtMs(cell.res.Millis),
			fmt.Sprintf("%d", cell.res.Counters.Get(pmu.MemAccess)),
			fmt.Sprintf("%d", cell.res.Qualifying),
		})
	}
	if memPacked >= memPlain {
		return nil, fmt.Errorf("experiments: packed scan moved %d lines, decoded %d — expected fewer", memPacked, memPlain)
	}

	return []*Report{sweep, compress, packed}, nil
}

// storedCell is one measured stored-scan configuration: the run's result,
// whose Cycles and Millis include the tier's stall, and its tier counters.
type storedCell struct {
	res  exec.Result
	plan *storage.Plan
	cnt  exec.StreamCounters
}

// runStored executes the selective Q6-shaped scan over the stored table
// under one tier configuration, from a cold tier, on a fresh serial rig.
// Reported time includes the run's stall cycles, which the driver adds.
func runStored(cfg Config, enc *columnar.EncodedTable, d *tpch.Dataset, cut int32, scfg storage.Config) (storedCell, error) {
	tab, err := enc.Decode()
	if err != nil {
		return storedCell{}, err
	}
	price := tab.Column("l_extendedprice")
	disc := tab.Column("l_discount")
	q := &exec.Query{
		Table: tab,
		Ops: []exec.Op{
			&exec.Predicate{Col: tab.Column("l_shipdate"), Op: exec.LE, I: int64(cut), Label: "shipdate<=p10"},
			&exec.Predicate{Col: disc, Op: exec.GE, F: 0.05, Label: "discount>=0.05"},
			&exec.Predicate{Col: tab.Column("l_quantity"), Op: exec.LT, I: 24, Label: "quantity<24"},
		},
		Agg: &exec.Aggregate{
			Cols: []*columnar.Column{price, disc},
			F:    func(r int) float64 { return price.F64()[r] * disc.F64()[r] },
		},
	}
	r, err := newRig(cpu.ScaledXeon(), cfg.serial())
	if err != nil {
		return storedCell{}, err
	}
	if err := r.bind(q); err != nil {
		return storedCell{}, err
	}
	plan, err := storage.Compile(enc, tab, q, cfg.VectorSize, scfg)
	if err != nil {
		return storedCell{}, err
	}
	if scfg.CompressedScan {
		images, err := storage.AllocPacked(r.eng.CPU(), enc)
		if err != nil {
			return storedCell{}, err
		}
		plan.ScanPacked(images, q)
	}
	stream, err := plan.NewStream()
	if err != nil {
		return storedCell{}, err
	}
	run, err := r.drive(core.Spec{Query: q, Storage: stream})
	if err != nil {
		return storedCell{}, err
	}
	return storedCell{res: run.Result, plan: plan, cnt: stream.Counters()}, nil
}
