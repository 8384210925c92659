package experiments

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
)

// Fig04 reproduces Figure 4: for a two-predicate selection, the ratio of
// measured to predicted branch mispredictions (not-taken, taken, all) over a
// grid of (sel1, sel2). Ratios near 1 everywhere validate the multi-
// predicate branch model.
func Fig04(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	n := 64 * cfg.VectorSize
	step := 0.2
	if cfg.Quick {
		step = 0.5
	}
	rng := datagen.NewRNG(cfg.Seed)
	tb := columnar.NewTable("t")
	tb.MustAddColumn(columnar.NewInt64("a", datagen.UniformInt64(rng, n, 0, 999)))
	tb.MustAddColumn(columnar.NewInt64("b", datagen.UniformInt64(rng, n, 0, 999)))

	r, err := newRig(cpu.ScaledXeon(), cfg.serial())
	if err != nil {
		return nil, err
	}
	params := peo.Params{
		N:        n,
		Widths:   []int{8, 8},
		Geometry: core.L3Geometry(r.eng.CPU().Profile()),
		Chain:    markov.Paper(),
	}

	var selAxis []float64
	for s := step; s < 1.0-1e-9; s += step {
		selAxis = append(selAxis, s)
	}
	cols := []string{"sel1\\sel2"}
	for _, s2 := range selAxis {
		cols = append(cols, fmtF(s2))
	}
	mk := func(sub, what string) *Report {
		return &Report{
			ID:      "fig04" + sub,
			Title:   fmt.Sprintf("Two-predicate %s mispredictions: measured/predicted", what),
			Columns: cols,
			Notes:   []string{fmt.Sprintf("%d tuples per cell; interior grid (ratios are unstable where counts ~0)", n)},
		}
	}
	repNT, repT, repAll := mk("a", "not-taken"), mk("b", "taken"), mk("c", "all")

	for _, s1 := range selAxis {
		rowNT := []string{fmtF(s1)}
		rowT := []string{fmtF(s1)}
		rowAll := []string{fmtF(s1)}
		for _, s2 := range selAxis {
			q := &exec.Query{
				Table: tb,
				Ops: []exec.Op{
					&exec.Predicate{Col: tb.Column("a"), Op: exec.LT, I: int64(s1 * 1000)},
					&exec.Predicate{Col: tb.Column("b"), Op: exec.LT, I: int64(s2 * 1000)},
				},
			}
			if err := r.bind(q); err != nil {
				return nil, err
			}
			run, err := r.drive(core.Spec{Query: q})
			if err != nil {
				return nil, err
			}
			est, err := peo.Counters(params, []float64{s1, s2})
			if err != nil {
				return nil, err
			}
			ratio := func(meas, pred float64) string {
				if pred < 1 {
					return "-"
				}
				return fmt.Sprintf("%.2f", meas/pred)
			}
			c := run.Counters
			rowNT = append(rowNT, ratio(float64(c.Get(pmu.BrMPNotTaken)), est.MPNotTaken))
			rowT = append(rowT, ratio(float64(c.Get(pmu.BrMPTaken)), est.MPTaken))
			rowAll = append(rowAll, ratio(float64(c.Get(pmu.BrMP)), est.MP()))
		}
		repNT.Rows = append(repNT.Rows, rowNT)
		repT.Rows = append(repT.Rows, rowT)
		repAll.Rows = append(repAll.Rows, rowAll)
	}
	return []*Report{repNT, repT, repAll}, nil
}
