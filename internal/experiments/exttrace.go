package experiments

import (
	"fmt"
	"strings"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// ExtTrace renders the observability layer's convergence timeline as a
// figure: Q6 started from its slowest PEO, fixed order v. progressive, with
// every optimizer decision event and retained PMU sample laid out against the
// simulated clock. The fixed run contributes only its final makespan (no
// decisions); the progressive run's rows show the sampling evidence (branch
// mispredictions, L3 accesses), the selectivity estimates, and the reorder
// events they triggered, ending in the plan-final state. The experiment
// validates its own trace: it fails unless the optimizer track carries at
// least one reorder event and the event clock is monotone, and it refuses a
// configuration whose progressive run gets no optimization point.
func ExtTrace(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	rows := 150 * cfg.VectorSize
	if cfg.Quick {
		rows = 30 * cfg.VectorSize
	}
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	d = d.ReorderLineitem(tpch.OrderingRandom, cfg.Seed+1)
	// The 4-predicate Q6 at 1% shipdate selectivity: the clear separation
	// guarantees the progressive optimizer reorders away from the worst
	// initial PEO, which the self-validation below depends on.
	q, err := exec.Q6Shipdate(d, d.ShipdateCutoff(0.01))
	if err != nil {
		return nil, err
	}
	sels := make([]float64, len(q.Ops))
	for i, op := range q.Ops {
		sels[i] = op.(*exec.Predicate).TrueSelectivity()
	}
	asc := core.AscendingOrder(sels)
	desc := make([]int, len(asc))
	for i, v := range asc {
		desc[len(asc)-1-i] = v
	}
	const reop = 10

	r, err := newRig(cpu.ScaledXeon(), cfg)
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
	prog, st, err := r.measureProgressive(q, desc, reop)
	if err != nil {
		return nil, err
	}
	if prog.Qualifying != base.Qualifying {
		return nil, fmt.Errorf("ext-trace: traced progressive run diverged: %d qualifying v. fixed %d",
			prog.Qualifying, base.Qualifying)
	}

	// Self-validation: the optimizer track (written only by the progressive
	// run) must carry at least one reorder and a monotone event clock. A
	// reorder happens only at an optimization point, so a run without one is
	// refused: the quick scale on four workers gets none.
	if st.Optimizations == 0 {
		return nil, fmt.Errorf("ext-trace: the progressive run had 0 optimization points, fewer than the 1 a reorder event needs (%d lineitems on %d workers, ReopInterval %d): use more rows or fewer workers",
			rows, cfg.Workers, reop)
	}
	events := r.opt.Events()
	reorders := 0
	var prev uint64
	for i, ev := range events {
		if ev.Name == "reorder" {
			reorders++
		}
		if i > 0 && ev.Start < prev {
			return nil, fmt.Errorf("ext-trace: optimizer event clock not monotone: %q at %d after %d",
				ev.Name, ev.Start, prev)
		}
		prev = ev.Start
	}
	if reorders == 0 {
		return nil, fmt.Errorf("ext-trace: expected at least one reorder event on the optimizer track, got 0 (%d events)",
			len(events))
	}
	if len(st.Samples) == 0 {
		return nil, fmt.Errorf("ext-trace: progressive run retained no PMU samples")
	}

	rep := &Report{
		ID:      "ext-trace",
		Title:   "Extension: traced convergence timeline — optimizer decisions and PMU series v. simulated cycles",
		Columns: []string{"series", "event", "cycles", "ms", "tuples", "br_mp", "l3_access", "detail"},
		Notes: []string{
			fmt.Sprintf("%d lineitems (random order), Q6 from its slowest PEO %s, ReopInt %d", rows, fmtPerm(desc), reop),
			fmt.Sprintf("validated: %d reorder event(s), monotone clock over %d optimizer events, %d retained samples",
				reorders, len(events), len(st.Samples)),
			"fixed series has no decision rows: its only event is the final makespan",
		},
	}
	// Decision events are stamped on the run's own clock, so the timeline
	// aligns with its makespan.
	for i, ev := range events {
		args := r.opt.Args(i)
		rep.Rows = append(rep.Rows, []string{
			"progressive", ev.Name,
			fmt.Sprintf("%d", ev.Start), fmtMs(r.millis(ev.Start)),
			fmtArgInt(args, "tuples"),
			fmtU64(argU64(args, "br_mp_taken") + argU64(args, "br_mp_not_taken")),
			fmtU64(argU64(args, "l3_access")),
			eventDetail(args),
		})
	}
	rep.Rows = append(rep.Rows,
		[]string{"progressive", "done", fmt.Sprintf("%d", prog.Cycles), fmtMs(r.millis(prog.Cycles)), "", "", "",
			fmt.Sprintf("%d reorders, converged at %d cyc", st.Reorders, st.ConvergedAtCycles)},
		[]string{"fixed", "done", fmt.Sprintf("%d", base.Cycles), fmtMs(r.millis(base.Cycles)), "", "", "",
			"fixed worst-PEO makespan"},
	)
	return []*Report{rep}, nil
}

// evArg looks up one event argument by key.
func evArg(args []trace.Arg, key string) (any, bool) {
	for _, a := range args {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return nil, false
}

// argU64 coerces a numeric event argument to uint64 (0 when absent).
func argU64(args []trace.Arg, key string) uint64 {
	v, ok := evArg(args, key)
	if !ok {
		return 0
	}
	switch x := v.(type) {
	case uint64:
		return x
	case int:
		return uint64(x)
	case int64:
		return uint64(x)
	}
	return 0
}

// fmtU64 renders a counter cell ("" for zero, keeping decision rows sparse).
func fmtU64(v uint64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%d", v)
}

// fmtArgInt renders an integer argument cell ("" when absent).
func fmtArgInt(args []trace.Arg, key string) string {
	v, ok := evArg(args, key)
	if !ok {
		return ""
	}
	if n, ok := v.(int); ok {
		return fmt.Sprintf("%d", n)
	}
	return ""
}

// eventDetail summarizes the plan-shaped payload of a decision event: orders
// for reorder/revert/plan-final, selectivity estimates for samples.
func eventDetail(args []trace.Arg) string {
	var parts []string
	if v, ok := evArg(args, "from"); ok {
		if p, ok := v.([]int); ok {
			parts = append(parts, "from "+fmtPerm(p))
		}
	}
	if v, ok := evArg(args, "to"); ok {
		if p, ok := v.([]int); ok {
			parts = append(parts, "to "+fmtPerm(p))
		}
	}
	if v, ok := evArg(args, "order"); ok {
		if p, ok := v.([]int); ok {
			parts = append(parts, "order "+fmtPerm(p))
		}
	}
	if v, ok := evArg(args, "impl"); ok {
		if s, ok := v.(string); ok {
			parts = append(parts, "impl "+s)
		}
	}
	if v, ok := evArg(args, "est_sels"); ok {
		if s, ok := v.([]float64); ok && len(s) > 0 {
			cells := make([]string, len(s))
			for i, x := range s {
				cells[i] = fmt.Sprintf("%.3f", x)
			}
			parts = append(parts, "est "+strings.Join(cells, "/"))
		}
	}
	return strings.Join(parts, "; ")
}
