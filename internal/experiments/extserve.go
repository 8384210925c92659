package experiments

import (
	"fmt"
	"sort"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/service"
	"progopt/internal/tpch"
)

// ExtServe measures the workload service: a recurring mix of progressive
// join queries is offered to pools of 2, 4 and 8 cores, each admitting as
// many queries as it has cores, once with the PMU-feedback cache disabled
// (every run pays the full observe-reorder-validate cost, and admitted
// queries run oldest first: "cold") and once warm-started from the converged
// orders a previous round of the same fingerprints deposited, the admitted
// query of shortest expected span first ("warm"). Reported are the workload makespan, simulated throughput, and
// p50/p95 per-query latency (queueing included). Everything runs on the
// simulated clock, so the table is bit-reproducible.
func ExtServe(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	vecs := 96
	queries := 12
	if cfg.Quick {
		vecs = 48
		queries = 8
	}
	rows := vecs * cfg.VectorSize
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Core 0 of one pool assigns every address the mix touches; the servers'
	// pools receive bound queries and allocate nothing.
	binder, err := exec.NewParallel(cpu.ScaledXeon(), 1, cfg.VectorSize)
	if err != nil {
		return nil, err
	}

	// Three recurring templates: worst-first predicate chains of cleanly
	// separated selectivities plus a foreign-key join — the shape whose
	// converged order is worth remembering.
	templates, err := serveTemplates(binder, d)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "ext-serve",
		Title: "Extension: workload service — pool size v. latency, cold v. warm feedback cache",
		Columns: []string{
			"workers", "cold_mkspan_ms", "warm_mkspan_ms",
			"cold_p50_ms", "warm_p50_ms", "cold_p95_ms", "warm_p95_ms",
			"cold_qps", "warm_qps", "warm_starts",
		},
		Notes: []string{
			fmt.Sprintf("pools of 2, 4 and 8 cores, MaxActive = the pool size; %d progressive join queries over 3 recurring plan fingerprints; %d lineitems", queries, rows),
			"one admitted query at a time runs to completion on the whole pool, the shortest expected first (its fingerprint's last span); the others wait admitted",
			"cold: feedback disabled, so every expected span ties and queries run oldest first; warm: same trace after one feedback-populating round",
			"latency = completion - arrival in simulated ms (queueing included); qps = queries per simulated second",
		},
	}

	for _, workers := range []int{2, 4, 8} {
		cold, err := runServeTrace(binder, templates, serveTraceConfig{
			vectorSize: cfg.VectorSize, poolWorkers: workers,
			queries: queries, noFeedback: true, warmup: false,
		})
		if err != nil {
			return nil, err
		}
		warm, err := runServeTrace(binder, templates, serveTraceConfig{
			vectorSize: cfg.VectorSize, poolWorkers: workers,
			queries: queries, noFeedback: false, warmup: true,
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmtMs(cold.makespanMs), fmtMs(warm.makespanMs),
			fmtMs(cold.p50Ms), fmtMs(warm.p50Ms),
			fmtMs(cold.p95Ms), fmtMs(warm.p95Ms),
			fmtF(cold.qps), fmtF(warm.qps),
			fmt.Sprintf("%d", warm.warmStarts),
		})
	}
	return []*Report{rep}, nil
}

// serveTemplates builds the recurring query mix with stable fingerprints.
// Each template's join region is reserved on binder (an *exec.Parallel) and
// its columns bound right after, so no region lies on a column a template
// reads.
func serveTemplates(binder interface {
	columnar.Allocator
	BindQuery(*exec.Query) error
}, d *tpch.Dataset) ([]servePlanTemplate, error) {
	li := d.Lineitem
	mk := func(shipSel float64, qtyBound int64, joinSel float64) (servePlanTemplate, error) {
		cut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), joinSel)
		jf := &exec.Predicate{Col: d.Orders.Column("o_orderdate"), Op: exec.LE, I: int64(cut)}
		j, err := exec.NewFKJoin(binder, li.Column("l_orderkey"), d.NumOrders, jf, "join-orders")
		if err != nil {
			return servePlanTemplate{}, err
		}
		q := &exec.Query{Table: li, Ops: []exec.Op{
			&exec.Predicate{Col: li.Column("l_shipdate"), Op: exec.LE, I: int64(d.ShipdateCutoff(shipSel)), Label: "shipdate"},
			&exec.Predicate{Col: li.Column("l_discount"), Op: exec.LE, F: 0.05, Label: "discount"},
			j,
			&exec.Predicate{Col: li.Column("l_quantity"), Op: exec.LT, I: qtyBound, Label: "quantity"},
		}}
		if err := binder.BindQuery(q); err != nil {
			return servePlanTemplate{}, err
		}
		fp := service.Compute("lineitem", 1, []string{
			fmt.Sprintf("ship|%v", shipSel),
			fmt.Sprintf("qty|%d", qtyBound),
			fmt.Sprintf("join|%v", joinSel),
		})
		return servePlanTemplate{q: q, fp: fp}, nil
	}
	var out []servePlanTemplate
	for _, spec := range []struct {
		ship float64
		qty  int64
		join float64
	}{
		{0.8, 10, 0.5},
		{0.7, 15, 0.4},
		{0.9, 8, 0.6},
	} {
		tpl, err := mk(spec.ship, spec.qty, spec.join)
		if err != nil {
			return nil, err
		}
		out = append(out, tpl)
	}
	return out, nil
}

type servePlanTemplate struct {
	q  *exec.Query
	fp service.Fingerprint
}

type serveTraceConfig struct {
	vectorSize  int
	poolWorkers int // also the admission cap
	queries     int
	noFeedback  bool
	warmup      bool
}

type serveTraceResult struct {
	makespanMs float64
	p50Ms      float64
	p95Ms      float64
	qps        float64
	warmStarts int
}

// runServeTrace offers the recurring mix, bound by binder, to a fresh server
// of binder's profile and measures the workload on binder's clock. With
// warmup, the trace runs once first so the feedback cache holds every
// fingerprint's converged order; the measured round then warm-starts.
func runServeTrace(binder *exec.Parallel, templates []servePlanTemplate, tc serveTraceConfig) (serveTraceResult, error) {
	clock := binder.Engines()[0].CPU()
	s, err := service.New(clock.Profile(), tc.poolWorkers, tc.vectorSize, service.Config{})
	if err != nil {
		return serveTraceResult{}, err
	}
	// ReopInterval 5 keeps several optimization blocks in every sweep cell,
	// including a lone query holding all 8 cores at quick scale.
	opt := core.Options{ReopInterval: 5}
	runRound := func(base uint64) ([]service.Outcome, error) {
		tks := make([]*service.Ticket, tc.queries)
		for i := 0; i < tc.queries; i++ {
			tpl := templates[i%len(templates)]
			req := service.Request{Spec: core.Spec{Query: tpl.q, Mode: core.ModeProgressive, Opt: opt}, Arrival: base}
			if !tc.noFeedback {
				req.Fingerprint = tpl.fp
			}
			tk, err := s.Submit(req)
			if err != nil {
				return nil, err
			}
			tks[i] = tk
		}
		outs := make([]service.Outcome, len(tks))
		for i, tk := range tks {
			o, err := tk.Wait()
			if err != nil {
				return nil, err
			}
			outs[i] = o
		}
		return outs, nil
	}

	var base uint64
	if tc.warmup {
		if _, err := runRound(0); err != nil {
			return serveTraceResult{}, err
		}
		base = s.Stats().MakespanCycles
	}
	warmStartsBefore := s.Stats().FeedbackWarmStarts
	outs, err := runRound(base)
	if err != nil {
		return serveTraceResult{}, err
	}

	lat := make([]float64, len(outs))
	var makespan uint64
	for i, o := range outs {
		lat[i] = clock.MillisOf(o.Done - o.Arrival)
		if o.Done > makespan {
			makespan = o.Done
		}
	}
	sort.Float64s(lat)
	mkMs := clock.MillisOf(makespan - base)
	res := serveTraceResult{
		makespanMs: mkMs,
		p50Ms:      lat[len(lat)/2],
		p95Ms:      lat[(len(lat)*95)/100],
		warmStarts: s.Stats().FeedbackWarmStarts - warmStartsBefore,
	}
	if mkMs > 0 {
		res.qps = float64(len(outs)) / (mkMs / 1000)
	}
	return res, nil
}
