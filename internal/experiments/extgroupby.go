package experiments

import (
	"fmt"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// ExtGroupBy measures morsel-driven grouped aggregation: a filtered
// SELECT l_quantity, SUM(l_extendedprice), COUNT(*) GROUP BY l_quantity,
// executed serially and on 2/4/8 simulated cores with per-core partial hash
// tables merged at the barrier, every core merging its own range of the keys.
// Reported times are makespans; groups (keys, float sums, counts) are verified
// bit-identical across worker counts — the value reduction runs in global row
// order regardless of which core drew which morsel.
func ExtGroupBy(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 128 * cfg.VectorSize
	if cfg.Quick {
		rows = 48 * cfg.VectorSize
	}

	rep := &Report{
		ID:      "ext-groupby",
		Title:   "Extension: morsel-driven grouped aggregation (per-core partial tables)",
		Columns: []string{"workers", "group_ms", "speedup", "groups", "qualifying"},
		Notes: []string{
			fmt.Sprintf("%d lineitems; filter 60%% shipdate + discount>=0.04, group by l_quantity", rows),
			"makespan of the slowest core incl. the merge barrier, each core merging one key range of every partial table",
			"groups verified bit-identical (float sums included) across worker counts",
		},
	}

	var serial exec.GroupResult
	for _, workers := range []int{1, 2, 4, 8} {
		// Fresh data set and address space per configuration, so every run
		// binds identically.
		d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		cut := d.ShipdateCutoff(0.6)
		q := &exec.Query{
			Table: d.Lineitem,
			Ops: []exec.Op{
				&exec.Predicate{Col: d.Lineitem.Column("l_shipdate"), Op: exec.LE, I: int64(cut)},
				&exec.Predicate{Col: d.Lineitem.Column("l_discount"), Op: exec.GE, F: 0.04},
			},
		}
		wcfg := cfg
		wcfg.Workers = workers
		r, err := newRig(cpu.ScaledXeon(), wcfg)
		if err != nil {
			return nil, err
		}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		gs := make([]*exec.GroupBy, r.run.Workers())
		for i := range gs {
			gs[i], err = exec.NewGroupBy(r.eng.CPU(), d.Lineitem.Column("l_quantity"), d.Lineitem.Column("l_extendedprice"), exec.KeyDomain{Groups: 50})
			if err != nil {
				return nil, err
			}
		}
		run, err := r.drive(core.Spec{Query: q, Groups: gs})
		if err != nil {
			return nil, err
		}
		res := exec.GroupResult{Result: run.Result, Groups: run.Groups}
		if workers == 1 {
			serial = res
		} else {
			if len(res.Groups) != len(serial.Groups) || res.Qualifying != serial.Qualifying {
				return nil, fmt.Errorf("experiments: %d-core grouped run changed the result", workers)
			}
			for i, g := range res.Groups {
				s := serial.Groups[i]
				if g.Key != s.Key || g.Count != s.Count || g.Sum != s.Sum {
					return nil, fmt.Errorf("experiments: %d-core group %d = %+v, serial %+v", workers, i, g, s)
				}
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", workers), fmtMs(res.Millis),
			fmtF(serial.Millis / res.Millis),
			fmt.Sprintf("%d", len(res.Groups)), fmt.Sprintf("%d", res.Qualifying),
		})
	}
	return []*Report{rep}, nil
}
