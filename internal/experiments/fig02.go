package experiments

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
)

// Fig02 reproduces Figure 2: the six branch- and cache-related counters of a
// single-predicate selection over the full selectivity range, each
// normalized to percent (branch events as % of tuples, L3 accesses as % of
// their plateau).
func Fig02(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	n := 128 * cfg.VectorSize
	rng := datagen.NewRNG(cfg.Seed)
	tb := columnar.NewTable("t")
	tb.MustAddColumn(columnar.NewInt64("v", datagen.UniformInt64(rng, n, 0, 999)))
	// The summed column is read only for qualifying tuples: the
	// conditional-read pattern whose L3 accesses rise with selectivity and
	// plateau once every line is touched (~20%), §3.1.
	tb.MustAddColumn(columnar.NewFloat64("x", datagen.UniformFloat64(rng, n, 0, 1)))

	step := 5
	if cfg.Quick {
		step = 20
	}

	r, err := newRig(cpu.ScaledXeon(), cfg)
	if err != nil {
		return nil, err
	}
	type row struct {
		sel                              float64
		l3, bt, bnt, mp, mpTak, mpNotTak float64
	}
	var rows []row
	maxL3 := 0.0
	for s := 0; s <= 100; s += step {
		// "v < s*10" has selectivity s% on uniform [0,999].
		xs := tb.Column("x").F64()
		q := &exec.Query{
			Table: tb,
			Ops:   []exec.Op{&exec.Predicate{Col: tb.Column("v"), Op: exec.LT, I: int64(s * 10)}},
			Agg: &exec.Aggregate{
				Cols: []*columnar.Column{tb.Column("x")},
				F:    func(row int) float64 { return xs[row] },
			},
		}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		res, err := r.eng.Run(q)
		if err != nil {
			return nil, err
		}
		c := res.Counters
		nf := float64(n)
		// Exclude the fully predictable loop branch so percentages reflect
		// the predicate's branch, matching the paper's presentation.
		rw := row{
			sel:      float64(s),
			l3:       float64(c.Get(pmu.L3Access)),
			bt:       (float64(c.Get(pmu.BrTaken)) - nf) / nf * 100,
			bnt:      float64(c.Get(pmu.BrNotTaken)) / nf * 100,
			mp:       float64(c.Get(pmu.BrMP)) / nf * 100,
			mpTak:    float64(c.Get(pmu.BrMPTaken)) / nf * 100,
			mpNotTak: float64(c.Get(pmu.BrMPNotTaken)) / nf * 100,
		}
		if rw.l3 > maxL3 {
			maxL3 = rw.l3
		}
		rows = append(rows, rw)
	}
	rep := &Report{
		ID:    "fig02",
		Title: "Counter overview: single selection, event counts in % (branch events per tuple, L3 of plateau)",
		Columns: []string{"sel_pct", "l3_access_pct", "br_taken_pct", "br_not_taken_pct",
			"br_mp_pct", "br_taken_mp_pct", "br_not_taken_mp_pct"},
		Notes: []string{fmt.Sprintf("%d tuples, int64 column, simulated ScaledXeon", n)},
	}
	for _, rw := range rows {
		l3pct := 0.0
		if maxL3 > 0 {
			l3pct = rw.l3 / maxL3 * 100
		}
		rep.Rows = append(rep.Rows, []string{
			fmtF(rw.sel), fmt.Sprintf("%.1f", l3pct), fmt.Sprintf("%.1f", rw.bt),
			fmt.Sprintf("%.1f", rw.bnt), fmt.Sprintf("%.1f", rw.mp),
			fmt.Sprintf("%.1f", rw.mpTak), fmt.Sprintf("%.1f", rw.mpNotTak),
		})
	}
	return []*Report{rep}, nil
}
