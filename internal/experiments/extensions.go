package experiments

import (
	"fmt"
	"math"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/stats"
	"progopt/internal/tpch"
)

// ExtEnum compares the two evidence sources of one progressive optimizer end
// to end: PMU sampling (core.ModeProgressive) against enumerator
// instrumentation (core.ModeEnumerated), which obtains exact selectivities by
// running each optimization point's vector instrumented. The loop and its
// policy are the same; only the evidence differs. It extends Figure 16 from
// per-loop overhead to whole-query runtime: the enumerated optimizer decides
// on exact selectivities but pays the instrumentation tax on every sampled
// vector. It fails unless the three runs agree on the answer.
func ExtEnum(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 150 * cfg.VectorSize
	if cfg.Quick {
		rows = 30 * cfg.VectorSize
	}
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	d = d.ReorderLineitem(tpch.OrderingRandom, cfg.Seed+1)
	// The 4-predicate modified Q6 at 1% shipdate selectivity: the clear
	// selectivity separation makes both optimizers converge to the same
	// order, isolating their sampling overheads (with the near-tie
	// 5-predicate Q6 the comparison would instead measure decision quality
	// under the PMU's 4-counters-for-5-unknowns ambiguity).
	q, err := exec.Q6Shipdate(d, d.ShipdateCutoff(0.01))
	if err != nil {
		return nil, err
	}
	vectorSizes := []int{512, 2048, 8192}
	if cfg.Quick {
		vectorSizes = []int{512, 2048}
	}
	const reop = 10

	// Worst initial order: descending true selectivity.
	sels := make([]float64, len(q.Ops))
	for i, op := range q.Ops {
		sels[i] = op.(*exec.Predicate).TrueSelectivity()
	}
	asc := core.AscendingOrder(sels)
	desc := make([]int, len(asc))
	for i, v := range asc {
		desc[len(asc)-1-i] = v
	}

	rep := &Report{
		ID:      "ext-enum",
		Title:   "Extension: counter-driven v. enumerator-driven progressive optimization (worst initial PEO)",
		Columns: []string{"vector_size", "baseline_ms", "pmu_ms", "enumerator_ms", "enum_vs_pmu"},
		Notes: []string{
			fmt.Sprintf("%d lineitems (random order), Q6 from its slowest PEO, ReopInt %d", rows, reop),
			"PMU pays Nelder-Mead inversion per sample; enumerator pays an instrumented vector per sample",
			"the PMU's fixed inversion cost amortizes with vector size; the enumerator's tax does not",
		},
	}
	serial := cfg
	serial.Workers = 1
	for _, vs := range vectorSizes {
		// One core whatever cfg.Workers: the paper's enumerator instruments
		// one sampled vector per optimization point. On a pool of several
		// cores every block but the last is an optimization point, so whole
		// blocks would run instrumented. The baseline and PMU columns run on
		// the same one-core rig so the three compare.
		r, err := newRig(cpu.ScaledXeon(), serial.withVector(vs))
		if err != nil {
			return nil, err
		}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		base, err := r.measureBaseline(q, desc)
		if err != nil {
			return nil, err
		}
		pmuRes, _, err := r.measureProgressive(q, desc, reop)
		if err != nil {
			return nil, err
		}
		qo, err := q.WithOrder(desc)
		if err != nil {
			return nil, err
		}
		run, err := r.drive(core.Spec{Query: qo, Mode: core.ModeEnumerated, Opt: core.Options{ReopInterval: reop}})
		if err != nil {
			return nil, err
		}
		enumRes := run.Result
		for _, c := range []struct {
			name string
			res  exec.Result
		}{{"pmu", pmuRes}, {"enumerator", enumRes}} {
			if c.res.Qualifying != base.Qualifying || math.Float64bits(c.res.Sum) != math.Float64bits(base.Sum) {
				return nil, fmt.Errorf("ext-enum: vector size %d: %s run answers %d rows, sum %v; the baseline %d rows, sum %v",
					vs, c.name, c.res.Qualifying, c.res.Sum, base.Qualifying, base.Sum)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", vs),
			fmtMs(base.Millis), fmtMs(pmuRes.Millis), fmtMs(enumRes.Millis),
			fmt.Sprintf("%.3f", enumRes.Millis/pmuRes.Millis),
		})
	}
	return []*Report{rep}, nil
}

// ExtMicro sweeps a two-predicate scan's selectivity and compares the
// branching scan, the branch-free scan, and the micro-adaptive driver that
// picks per vector from counter-estimated selectivities. The adaptive line
// should track the lower envelope of the two static implementations.
func ExtMicro(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	n := 100 * cfg.VectorSize
	if cfg.Quick {
		n = 20 * cfg.VectorSize
	}
	rng := datagen.NewRNG(cfg.Seed)
	tb := columnar.NewTable("micro")
	tb.MustAddColumn(columnar.NewInt64("a", datagen.UniformInt64(rng, n, 0, 999)))
	tb.MustAddColumn(columnar.NewInt64("b", datagen.UniformInt64(rng, n, 0, 999)))

	selPoints := []int{2, 10, 30, 50, 70, 90, 98}
	if cfg.Quick {
		selPoints = []int{10, 50, 90}
	}
	serial := cfg
	serial.Workers = 1
	rep := &Report{
		ID:      "ext-micro",
		Title:   "Extension: micro-adaptive implementation choice (branching v. branch-free)",
		Columns: []string{"sel_pct", "branching_ms", "branchfree_ms", "adaptive_ms", "adaptive_impl_mix"},
		Notes: []string{
			fmt.Sprintf("%d tuples, two equal predicates; adaptive = progressive driver choosing per cycle", n),
		},
	}
	for _, s := range selPoints {
		q := &exec.Query{
			Table: tb,
			Ops: []exec.Op{
				&exec.Predicate{Col: tb.Column("a"), Op: exec.LT, I: int64(s * 10)},
				&exec.Predicate{Col: tb.Column("b"), Op: exec.LT, I: int64(s * 10)},
			},
		}
		// One core whatever cfg.Workers: the static columns run on the
		// rig's engine, and the adaptive one must be serial like them.
		r, err := newRig(cpu.ScaledXeon(), serial)
		if err != nil {
			return nil, err
		}
		if err := r.bind(q); err != nil {
			return nil, err
		}
		branching, err := r.eng.Run(q)
		if err != nil {
			return nil, err
		}
		r.eng.CPU().Cold()
		free, err := r.eng.RunBranchFree(q)
		if err != nil {
			return nil, err
		}
		run, err := r.drive(core.Spec{Query: q, Mode: core.ModeMicroAdaptive, Opt: core.Options{ReopInterval: 5}})
		if err != nil {
			return nil, err
		}
		adaptive, st := run.Result, run.Stats()
		rep.Rows = append(rep.Rows, []string{
			fmtF(float64(s)),
			fmtMs(branching.Millis), fmtMs(free.Millis), fmtMs(adaptive.Millis),
			fmt.Sprintf("%db/%df", st.BranchingVectors, st.BranchFreeVectors),
		})
	}
	return []*Report{rep}, nil
}

// ExtStatic pits a classical static optimizer (equi-width histograms built
// from the bulk-load prefix, predicates ordered once at compile time)
// against progressive optimization on weakly clustered data — the situation
// the paper's introduction motivates. The static plan is correct for the
// sampled prefix and wrong for the rest of the table.
func ExtStatic(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	rows := 150 * cfg.VectorSize
	if cfg.Quick {
		rows = 30 * cfg.VectorSize
	}
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	samples := []float64{0.01, 0.05, 0.25, 1.0}
	if cfg.Quick {
		samples = []float64{0.01, 1.0}
	}
	rep := &Report{
		ID:      "ext-static",
		Title:   "Extension: histogram-based static optimizer v. progressive (bulk-loaded data)",
		Columns: []string{"stats_sample_pct", "static_ms", "static+prog_ms", "oracle_best_ms"},
		Notes: []string{
			fmt.Sprintf("%d lineitems in bulk-load order; Q6; histograms from the table prefix", rows),
			"static = order fixed from histogram estimates; static+prog = same start, progressive enabled",
			"oracle = best fixed order found by exhaustive search (unachievable in practice)",
		},
	}
	q, err := exec.Q6(d)
	if err != nil {
		return nil, err
	}
	r, err := newRig(cpu.ScaledXeon(), cfg)
	if err != nil {
		return nil, err
	}
	if err := r.bind(q); err != nil {
		return nil, err
	}

	// Oracle: best fixed order over all 120.
	oracle := -1.0
	for _, perm := range exec.Permutations(len(q.Ops)) {
		res, err := r.measureBaseline(q, perm)
		if err != nil {
			return nil, err
		}
		if oracle < 0 || res.Millis < oracle {
			oracle = res.Millis
		}
	}

	for _, frac := range samples {
		sampleRows := int(frac * float64(rows))
		cat, err := stats.BuildCatalog(d.Lineitem, sampleRows)
		if err != nil {
			return nil, err
		}
		perm, _, err := cat.StaticOrder(q)
		if err != nil {
			return nil, err
		}
		static, err := r.measureBaseline(q, perm)
		if err != nil {
			return nil, err
		}
		prog, _, err := r.measureProgressive(q, perm, 10)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmtF(frac * 100),
			fmtMs(static.Millis), fmtMs(prog.Millis), fmtMs(oracle),
		})
	}
	return []*Report{rep}, nil
}
