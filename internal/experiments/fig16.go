package experiments

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
)

// Fig16 reproduces Figure 16: the run-time overhead of obtaining individual
// selectivities, comparing the enumerator-based approach (explicit counter
// variables incremented in the loop) against non-invasive performance
// counters, over 1..10 predicates.
func Fig16(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 64 * cfg.VectorSize
	if cfg.Quick {
		rows = 16 * cfg.VectorSize
	}
	maxPreds := 10
	if cfg.Quick {
		maxPreds = 4
	}
	rng := datagen.NewRNG(cfg.Seed)
	tb := columnar.NewTable("wide")
	for i := 0; i < maxPreds; i++ {
		tb.MustAddColumn(columnar.NewInt64(fmt.Sprintf("c%d", i), datagen.UniformInt64(rng, rows, 0, 99)))
	}

	// PMU sampling cost per vector: one counter-group read.
	const pmuReadInstr = 50

	rep := &Report{
		ID:      "fig16",
		Title:   "Overhead of selectivity instrumentation (% of plain runtime, log-scale in the paper)",
		Columns: []string{"predicates", "enumerator_overhead_pct", "papi_overhead_pct"},
		Notes: []string{
			fmt.Sprintf("%d tuples, uniform int64 columns, all predicates 90%% selective", rows),
			"high selectivity makes every predicate position execute, so counter cost scales with depth",
			"enumerator: explicit counter increments per evaluation; papi: one PMU group read per vector",
		},
	}
	for p := 1; p <= maxPreds; p++ {
		ops := make([]exec.Op, p)
		for i := 0; i < p; i++ {
			ops[i] = &exec.Predicate{Col: tb.Column(fmt.Sprintf("c%d", i)), Op: exec.LT, I: 90}
		}
		q := &exec.Query{Table: tb, Ops: ops}

		r, err := newRig(cpu.ScaledXeon(), cfg.serial())
		if err != nil {
			return nil, err
		}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		run, err := r.drive(core.Spec{Query: q})
		if err != nil {
			return nil, err
		}
		plain := run.Result
		// PAPI-style run: the plain run plus one counter read per vector,
		// charged at its end — the clock is a function of running totals.
		c := r.eng.CPU()
		end := c.Cycles()
		c.Exec(pmuReadInstr * plain.Vectors)
		papiCycles := plain.Cycles + c.Cycles() - end
		run, err = r.drive(core.Spec{Query: q, Impl: exec.ImplInstrumented})
		if err != nil {
			return nil, err
		}
		inst := run.Result

		enumPct := (float64(inst.Cycles) - float64(plain.Cycles)) / float64(plain.Cycles) * 100
		papiPct := (float64(papiCycles) - float64(plain.Cycles)) / float64(plain.Cycles) * 100
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.2f", enumPct),
			fmt.Sprintf("%.4f", papiPct),
		})
	}
	return []*Report{rep}, nil
}
