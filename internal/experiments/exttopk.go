package experiments

import (
	"fmt"
	"reflect"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// ExtTopK measures the order-aware operator: the latency of a filtered
// Top-K revenue report as K grows from 1 to a full sort, serially and on
// 2/4/8 simulated cores. Limited plans run the bounded-heap path (one root
// compare per qualifying tuple, log K sifts for displacing ones); the full
// sort runs the run-generating merge path. Reported times are makespans
// including the coordinator's barrier merge and emission; the ordered rows
// — float carried values included — are verified bit-identical across
// worker counts.
func ExtTopK(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 96 * cfg.VectorSize
	if cfg.Quick {
		rows = 32 * cfg.VectorSize
	}
	workers := []int{1, 2, 4, 8}
	ks := []int{1, 16, 256, -1}

	rep := &Report{
		ID:      "ext-topk",
		Title:   "Extension: morsel-parallel Top-K/OrderBy (bounded heap v. run merge sort)",
		Columns: []string{"k", "w1_ms", "w2_ms", "w4_ms", "w8_ms", "rows_out"},
		Notes: []string{
			fmt.Sprintf("%d lineitems; filter 60%% shipdate + discount>=0.03, order by l_extendedprice desc", rows),
			"k = limit (bounded-heap Top-K); 'full' = no limit (run-generating merge sort)",
			"makespan incl. the coordinator's barrier merge + emission; ordered rows bit-identical across workers",
		},
	}

	for _, k := range ks {
		label := "full"
		if k >= 0 {
			label = fmt.Sprintf("%d", k)
		}
		row := []string{label}
		var ref []exec.SortedRow
		for _, w := range workers {
			out, ms, err := runTopK(cfg, rows, w, k)
			if err != nil {
				return nil, err
			}
			if ref == nil {
				ref = out
			} else if !reflect.DeepEqual(out, ref) {
				return nil, fmt.Errorf("experiments: %d-core top-%s output diverges from serial", w, label)
			}
			row = append(row, fmtMs(ms))
		}
		row = append(row, fmt.Sprintf("%d", len(ref)))
		rep.Rows = append(rep.Rows, row)
	}
	return []*Report{rep}, nil
}

// runTopK executes one (workers, limit) cell: a fresh data set and rig (so
// every configuration binds identically), the filtered ordered query, and
// the coordinator merge, returning the ordered rows and the makespan.
func runTopK(cfg Config, rows, workers, limit int) ([]exec.SortedRow, float64, error) {
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, 0, err
	}
	li := d.Lineitem
	price := li.Column("l_extendedprice")
	disc := li.Column("l_discount")
	agg := &exec.Aggregate{
		Cols: []*columnar.Column{price, disc},
		F:    func(r int) float64 { return price.F64()[r] * disc.F64()[r] },
	}
	cut := d.ShipdateCutoff(0.6)
	q := &exec.Query{
		Table: li,
		Ops: []exec.Op{
			&exec.Predicate{Col: li.Column("l_shipdate"), Op: exec.LE, I: int64(cut)},
			&exec.Predicate{Col: disc, Op: exec.GE, F: 0.03},
		},
		Agg: agg,
	}
	wcfg := cfg
	wcfg.Workers = workers
	r, err := newRig(cpu.ScaledXeon(), wcfg)
	if err != nil {
		return nil, 0, err
	}
	if err := r.bind(q); err != nil {
		return nil, 0, err
	}
	keys := []exec.SortKey{{Col: price, Desc: true}}
	sorts := make([]*exec.Sort, r.run.Workers())
	for i := range sorts {
		if sorts[i], err = exec.NewSort(r.eng.CPU(), keys, limit, agg, rows, cfg.VectorSize); err != nil {
			return nil, 0, err
		}
	}
	run, err := r.drive(core.Spec{Query: q, Sorts: sorts})
	if err != nil {
		return nil, 0, err
	}
	return run.Sorted, run.Millis, nil
}
