package experiments

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/costmodel/markov"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/branch"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
)

// Fig06 reproduces Figure 6: branch mispredictions (total, taken, not-taken)
// of a single selection across the modelled microarchitectures, against the
// paper's Markov estimation and the simpler Zeuch et al. model.
func Fig06(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	n := 64 * cfg.VectorSize
	step := 10
	if cfg.Quick {
		step = 25
	}
	rng := datagen.NewRNG(cfg.Seed)
	tb := columnar.NewTable("t")
	tb.MustAddColumn(columnar.NewInt64("v", datagen.UniformInt64(rng, n, 0, 999)))

	arches := []branch.Arch{branch.ArchNehalem, branch.ArchSandyBridge, branch.ArchIvyBridge, branch.ArchBroadwell}

	cols := []string{"sel_pct"}
	for _, a := range arches {
		cols = append(cols, string(a))
	}
	cols = append(cols, "est_markov", "zeuch_et_al")
	mk := func(sub, what string) *Report {
		return &Report{
			ID:      "fig06" + sub,
			Title:   fmt.Sprintf("Branch counter overview: %s mispredictions per %d tuples", what, n),
			Columns: cols,
			Notes:   []string{"selection loop over an int64 column; predictors per DESIGN.md substitutions"},
		}
	}
	repAll, repT, repNT := mk("a", "all"), mk("b", "taken"), mk("c", "not-taken")

	// One rig per architecture, reused across the sweep.
	rigs := make(map[branch.Arch]*rig)
	for _, a := range arches {
		r, err := newRig(cpu.ForArch(a), cfg)
		if err != nil {
			return nil, err
		}
		rigs[a] = r
	}

	for s := 0; s <= 100; s += step {
		p := float64(s) / 100
		rowAll := []string{fmtF(float64(s))}
		rowT := []string{fmtF(float64(s))}
		rowNT := []string{fmtF(float64(s))}
		for _, a := range arches {
			r := rigs[a]
			q := &exec.Query{
				Table: tb,
				Ops:   []exec.Op{&exec.Predicate{Col: tb.Column("v"), Op: exec.LT, I: int64(s * 10)}},
			}
			if err := r.bind(q); err != nil {
				return nil, err
			}
			res, err := r.eng.Run(q)
			if err != nil {
				return nil, err
			}
			c := res.Counters
			rowAll = append(rowAll, fmt.Sprintf("%d", c.Get(pmu.BrMP)))
			rowT = append(rowT, fmt.Sprintf("%d", c.Get(pmu.BrMPTaken)))
			rowNT = append(rowNT, fmt.Sprintf("%d", c.Get(pmu.BrMPNotTaken)))
		}
		mpT, mpNT, mp := markov.Paper().Counts(p, float64(n))
		rowAll = append(rowAll, fmt.Sprintf("%.0f", mp), fmt.Sprintf("%.0f", markov.ZeuchMP(p)*float64(n)))
		rowT = append(rowT, fmt.Sprintf("%.0f", mpT), "-")
		rowNT = append(rowNT, fmt.Sprintf("%.0f", mpNT), "-")
		repAll.Rows = append(repAll.Rows, rowAll)
		repT.Rows = append(repT.Rows, rowT)
		repNT.Rows = append(repNT.Rows, rowNT)
	}
	return []*Report{repAll, repT, repNT}, nil
}
