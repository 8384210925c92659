package progopt

import (
	"fmt"
	"slices"
	"strings"

	"progopt/internal/core"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/exec"
)

// OpExplain describes one operator in an explained plan.
type OpExplain struct {
	// Position is the evaluation position (0 = first).
	Position int
	// Name is the operator's display name.
	Name string
	// Kind is "predicate" or "join".
	Kind string
	// TrueSelectivity is the operator's standalone selectivity measured
	// directly on the data (what a perfect oracle would know).
	TrueSelectivity float64
	// EstimatedInput is the expected fraction of table rows reaching this
	// operator under independence.
	EstimatedInput float64
}

// JoinEdgeExplain describes one resolved join-graph edge of a compiled
// JoinOn plan.
type JoinEdgeExplain struct {
	// From and To are the edge's endpoint tables.
	From, To string
	// Key is the foreign-key column the edge probes through.
	Key string
	// BuildRows is |To|.
	BuildRows int
	// Hops is the probe-path length from the driving table (1 = the key is a
	// driving-table column, 2 = one intermediate table, ...).
	Hops int
	// Pushed is the number of predicates pushed down to To.
	Pushed int
}

// PlanExplain describes a query plan with per-operator facts and the cost
// model's counter predictions for the current order.
type PlanExplain struct {
	// Table is the driving table name and Rows its cardinality.
	Table string
	Rows  int
	// Exec names the execution mode ("batch" kernels over selection vectors,
	// or the "scalar" row loop) and Workers the simulated core count the
	// engine will use for the scan.
	Exec    string
	Workers int
	// Sum is the plan's aggregate expression ("" = none).
	Sum string
	// Group describes the grouped aggregation as "key, value" ("" = none);
	// GroupTables is the number of per-core partial hash tables it compiled
	// to and GroupDistinct the key-domain estimate they are sized for.
	Group         string
	GroupTables   int
	GroupDistinct int
	// OrderBy describes the ordering as "col [desc], ..." ("" = none);
	// SortStates is the number of per-core partial sort states it compiled
	// to. Limit is the Top-K bound and LimitSet whether one was declared
	// (Limit(0) is valid and distinct from no limit).
	OrderBy    string
	SortStates int
	Limit      int
	LimitSet   bool
	// Pipeline describes the fused execution pipeline ("" when the engine
	// runs unfused): the operator chain collapsed into single-pass batch
	// kernels, e.g. "filter+join+agg [fused]".
	Pipeline string
	// Storage describes the stored-scan provenance ("" for in-RAM plans):
	// compression ratio, zone-map pruning, and enabled scan capabilities.
	// StorageBlocksTotal/StorageBlocksPruned/StorageVectorsSkipped expose
	// the pruning facts it renders.
	Storage               string
	StorageBlocksTotal    int
	StorageBlocksPruned   int
	StorageVectorsSkipped int
	// Provenance describes how a workload server most recently obtained
	// this query — plan-cache hit or fresh compile, feedback warm start or
	// cold start, and the plan fingerprint ("" when the query has never
	// been served).
	Provenance string
	// Trace summarizes the spans and decision events of this query's most
	// recent traced execution, in first-appearance order (nil when the query
	// never ran on an engine with Config.Trace set).
	Trace []TraceAgg
	// Joins describes the resolved join-graph edges in the greedy default
	// order (nil for plans without JoinOn edges).
	Joins []JoinEdgeExplain
	// Ops describes the operators in evaluation order.
	Ops []OpExplain
	// PredictedBNT, PredictedMP, PredictedL3 are the §3 model's counter
	// predictions for one full scan in this order.
	PredictedBNT, PredictedMP, PredictedL3 float64
	// PredictedQualifying is the expected output cardinality under
	// independence.
	PredictedQualifying float64
}

// String renders the plan in an EXPLAIN-like block.
func (p PlanExplain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s (%d rows; %s exec, %d worker(s))\n", p.Table, p.Rows, p.Exec, p.Workers)
	if len(p.Joins) > 0 {
		b.WriteString("  join graph (greedy order):")
		for _, j := range p.Joins {
			fmt.Fprintf(&b, " %s -%s-> %s (%d rows", j.From, j.Key, j.To, j.BuildRows)
			if j.Hops > 1 {
				fmt.Fprintf(&b, ", %d hops", j.Hops)
			}
			if j.Pushed > 0 {
				fmt.Fprintf(&b, ", %d pushed filter(s)", j.Pushed)
			}
			b.WriteString(");")
		}
		b.WriteString("\n")
	}
	for _, op := range p.Ops {
		fmt.Fprintf(&b, "  %d: %-24s %-9s sel=%.4f  input=%.4f\n",
			op.Position, op.Name, op.Kind, op.TrueSelectivity, op.EstimatedInput)
	}
	if p.Sum != "" {
		fmt.Fprintf(&b, "  sum(%s)\n", p.Sum)
	}
	if p.Group != "" {
		fmt.Fprintf(&b, "  group by %s (%d partial table(s), %d-key domain)\n",
			p.Group, p.GroupTables, p.GroupDistinct)
	}
	if p.OrderBy != "" {
		fmt.Fprintf(&b, "  order by %s", p.OrderBy)
		if p.LimitSet {
			fmt.Fprintf(&b, " limit %d (bounded heap)", p.Limit)
		} else {
			b.WriteString(" (run merge sort)")
		}
		fmt.Fprintf(&b, " [%d partial state(s)]\n", p.SortStates)
	}
	if p.Pipeline != "" {
		fmt.Fprintf(&b, "  pipeline: %s\n", p.Pipeline)
	}
	if p.Storage != "" {
		fmt.Fprintf(&b, "  storage: %s\n", p.Storage)
	}
	if p.Provenance != "" {
		fmt.Fprintf(&b, "served: %s\n", p.Provenance)
	}
	if len(p.Trace) > 0 {
		b.WriteString("trace:")
		for _, a := range p.Trace {
			if a.Cycles > 0 {
				fmt.Fprintf(&b, " %s x%d (%d cyc);", a.Name, a.Count, a.Cycles)
			} else {
				fmt.Fprintf(&b, " %s x%d;", a.Name, a.Count)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "predicted: BNT=%.0f MP=%.0f L3=%.0f out=%.0f\n",
		p.PredictedBNT, p.PredictedMP, p.PredictedL3, p.PredictedQualifying)
	return b.String()
}

// fusedPipelineDesc names the single-pass kernel chain the batch engine
// collapses the plan into, e.g. "filter+join+agg [fused]".
func fusedPipelineDesc(q *Query) string {
	var parts []string
	for _, op := range q.q.Ops {
		switch op.(type) {
		case *exec.Predicate:
			parts = append(parts, "filter")
		case *exec.FKJoin:
			parts = append(parts, "join")
		default:
			parts = append(parts, "op")
		}
	}
	switch {
	case q.group != nil:
		parts = append(parts, "group")
	case q.sumExpr != "":
		parts = append(parts, "agg")
	}
	return strings.Join(parts, "+") + " [fused]"
}

// storageDesc renders the stored-scan provenance line: the v2 image's
// compression, how many blocks the zone maps pruned against the compiled
// predicate bounds, and which scan capabilities the configuration enables.
func storageDesc(s *storedQuery) string {
	cfg := s.plan.Config()
	var b strings.Builder
	fmt.Fprintf(&b, "pcol v2 (%d blocks x %d rows, %d -> %d bytes)",
		s.plan.BlocksTotal(), s.plan.Enc.BlockRows(), s.plan.Enc.PlainBytes(), s.plan.Enc.EncodedBytes())
	if cfg.SkipScan {
		fmt.Fprintf(&b, "; zone maps prune %d/%d blocks (%d vectors skipped)",
			s.plan.BlocksPruned(), s.plan.BlocksTotal(), s.plan.VectorsSkipped())
	} else {
		b.WriteString("; zone maps off")
	}
	if cfg.CompressedScan {
		b.WriteString("; compressed scan")
	}
	fmt.Fprintf(&b, "; tier %d cyc + %d B/cyc", cfg.LatencyCycles, max(cfg.BytesPerCycle, 1))
	if cfg.ResidentBytes > 0 {
		fmt.Fprintf(&b, ", %d B resident budget", cfg.ResidentBytes)
	} else {
		b.WriteString(", unbounded resident set")
	}
	return b.String()
}

// fmtOrder renders an operator permutation as "2-0-1".
func fmtOrder(p []int) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Explain inspects the query without simulating it: per-operator true
// selectivities (measured directly on the data) and the cost models'
// counter predictions for the current evaluation order.
func (e *Engine) Explain(q *Query) (PlanExplain, error) {
	out := PlanExplain{
		Table:   q.q.Table.Name(),
		Rows:    q.q.Table.NumRows(),
		Exec:    "batch",
		Workers: e.Workers(),
		Sum:     q.sumExpr,
	}
	if e.core0().Scalar() {
		out.Exec = "scalar"
	}
	if q.group != nil {
		out.Group = q.group.key + ", " + q.group.value
		out.GroupTables = len(q.group.tables)
		out.GroupDistinct = q.group.distinct
	}
	if q.sort != nil {
		parts := make([]string, len(q.sort.keys))
		for i, k := range q.sort.keys {
			parts[i] = k.Col.Name()
			if k.Desc {
				parts[i] += " desc"
			}
		}
		out.OrderBy = strings.Join(parts, ", ")
		out.SortStates = len(q.sort.states)
		if q.sort.limit >= 0 {
			out.Limit = q.sort.limit
			out.LimitSet = true
		}
	}
	if ta := q.traced.Load(); ta != nil {
		out.Trace = slices.Clone(*ta)
	}
	if q.joins != nil {
		out.Joins = append([]JoinEdgeExplain(nil), q.joins...)
	}
	if sp := q.served.Load(); sp != nil {
		src := "compiled (plan-cache miss)"
		if sp.planCacheHit {
			src = "plan-cache hit"
		}
		warm := "cold start"
		if sp.warmStart {
			warm = "feedback warm-start order " + fmtOrder(sp.warmOrder)
		}
		out.Provenance = fmt.Sprintf("%s; %s; fingerprint %s", src, warm, sp.fingerprint)
	}
	sels := make([]float64, len(q.q.Ops))
	widths := make([]int, len(q.q.Ops))
	input := 1.0
	for i, op := range q.q.Ops {
		oe := OpExplain{Position: i, Name: op.Name(), EstimatedInput: input}
		widths[i] = op.Width()
		switch o := op.(type) {
		case *exec.Predicate:
			oe.Kind = "predicate"
			oe.TrueSelectivity = o.TrueSelectivity()
		case *exec.FKJoin:
			oe.Kind = "join"
			oe.TrueSelectivity = o.JoinSelectivity()
		default:
			oe.Kind = "operator"
			oe.TrueSelectivity = 1
		}
		sels[i] = oe.TrueSelectivity
		input *= oe.TrueSelectivity
		out.Ops = append(out.Ops, oe)
	}
	if w := e.core0(); !w.Scalar() && w.Fused() {
		out.Pipeline = fusedPipelineDesc(q)
	}
	if s := q.storage; s != nil {
		out.StorageBlocksTotal = s.plan.BlocksTotal()
		out.StorageBlocksPruned = s.plan.BlocksPruned()
		out.StorageVectorsSkipped = s.plan.VectorsSkipped()
		out.Storage = storageDesc(s)
	}
	params := peo.Params{
		N:        out.Rows,
		Widths:   widths,
		Geometry: core.L3Geometry(e.core0().CPU().Profile()),
		Chain:    markov.Paper(),
	}
	if q.q.Agg != nil {
		for _, col := range q.q.Agg.Cols {
			params.AggWidths = append(params.AggWidths, col.Width())
		}
	}
	est, err := peo.Counters(params, sels)
	if err != nil {
		return PlanExplain{}, err
	}
	out.PredictedBNT = est.BNT
	out.PredictedMP = est.MP()
	out.PredictedL3 = est.L3
	out.PredictedQualifying = est.Qualifying
	return out, nil
}
