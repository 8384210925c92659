package progopt

import (
	"fmt"
	"strings"

	"progopt/internal/columnar"
	"progopt/internal/exec"
)

// groupExec is a compiled grouped aggregation: the group/value columns plus
// the hash tables reserved in the engine's address space — one per simulated
// core, so a parallel run updates per-core partial tables.
type groupExec struct {
	key, value string
	// distinct is the compile-time key-domain estimate the tables are sized
	// for.
	distinct int
	// tables holds one hash-table region per core.
	tables []*exec.GroupBy
}

// sortExec is a compiled OrderBy/Limit: the validated keys and limit plus
// one exec.Sort per simulated core, each with its own heap/run-buffer
// regions in the engine's address space, so a parallel run maintains
// per-core partial sort state merged at the barrier.
type sortExec struct {
	keys []exec.SortKey
	// limit is the Top-K bound; -1 means no limit (full sort).
	limit  int
	states []*exec.Sort
}

// Compile validates the plan against the data set, binds its columns into
// the engine's address space, and returns an executable query. Every plan
// compiles as a join graph rooted at its driving table — a plan without
// JoinOn steps is the graph without edges, and any table of the data set can
// drive. Validation covers: the edges (tables, key columns, connectivity),
// ownership of every filter column (a predicate on a table the plan does not
// join is rejected, not evaluated with driving-table row ids), driving-table
// membership of every aggregate and order-by column, bound types against
// column kinds, group-key domains (the grouped-aggregation hash table is
// sized from the key column's actual min/max, scanned here), and ordering
// constraints (Limit needs OrderBy and a non-negative bound).
func (e *Engine) Compile(d *Dataset, p *Plan) (*Query, error) {
	if d == nil {
		return nil, fmt.Errorf("progopt: Compile needs a data set")
	}
	if p == nil {
		return nil, fmt.Errorf("progopt: Compile needs a plan")
	}
	if p.err != nil {
		return nil, p.err
	}
	driving, err := graphDrivingTable(d, p.table)
	if err != nil {
		return nil, err
	}
	// A storage-backed engine executes over the stored table's decoded
	// image: same rows and values, but the blocks it was decoded from carry
	// the zone maps and encoded sizes the storage tier prices.
	var stored *storedTable
	if e.stcfg != nil {
		if driving != d.d.Lineitem {
			return nil, fmt.Errorf("progopt: a storage-backed engine drives scans from \"lineitem\" only, not %q", driving.Name())
		}
		st, err := e.storedLineitem(d)
		if err != nil {
			return nil, err
		}
		stored = st
		driving = st.tab
	}
	if len(p.steps) == 0 {
		return nil, fmt.Errorf("progopt: plan needs at least one operator")
	}
	if p.sum != "" && p.group != nil {
		return nil, fmt.Errorf("progopt: plan has both Sum and GroupBy; a grouped plan sums its value column")
	}

	// Every plan is a join graph, a filter-only one a graph without edges:
	// resolve edges, push down cross-table predicates, and order operators
	// with the statistics-free greedy orderer.
	ops, joinEdges, err := e.compileGraph(d, driving, p)
	if err != nil {
		return nil, err
	}

	q := &exec.Query{Table: driving, Ops: ops}
	if p.sum != "" {
		agg, err := compileSum(driving, p.sum)
		if err != nil {
			return nil, err
		}
		q.Agg = agg
	}
	if err := e.par.BindQuery(q); err != nil {
		return nil, err
	}

	out := &Query{q: q, sumExpr: p.sum, joins: joinEdges}
	if p.group != nil {
		ge, err := e.compileGroup(driving, p.group.key, p.group.value)
		if err != nil {
			return nil, err
		}
		out.group = ge
	}
	if p.hasLimit && len(p.order) == 0 {
		return nil, fmt.Errorf("progopt: Limit(%d) without OrderBy (a limit truncates ordered output)", p.limit)
	}
	if len(p.order) > 0 {
		if p.group != nil {
			return nil, fmt.Errorf("progopt: plan has both GroupBy and OrderBy; ordered grouped plans are not supported yet")
		}
		se, err := e.compileSort(d, driving, p, q.Agg)
		if err != nil {
			return nil, err
		}
		out.sort = se
	}
	if stored != nil {
		// Last, after every ordinary bind and reservation, so a faithful
		// (uncompressed) storage configuration keeps the address space
		// identical to an in-RAM engine's.
		sq, err := e.compileStorage(stored, q)
		if err != nil {
			return nil, err
		}
		out.storage = sq
	}
	return out, nil
}

// compileSort validates the ordering keys and limit and reserves one sort
// state per core.
func (e *Engine) compileSort(d *Dataset, driving *columnar.Table, p *Plan, agg *exec.Aggregate) (*sortExec, error) {
	keys := make([]exec.SortKey, 0, len(p.order))
	for _, o := range p.order {
		col := driving.Column(o.col)
		if col == nil {
			for _, name := range datasetTableNames(d) {
				t := d.d.Table(name)
				if t != driving && t.Column(o.col) != nil {
					return nil, fmt.Errorf(
						"progopt: order column %q belongs to %q, not the driving table %q (order by driving-table columns; join values are not materialized)",
						o.col, name, driving.Name())
				}
			}
			return nil, fmt.Errorf("progopt: unknown order column %q in %q (columns: %s)",
				o.col, driving.Name(), strings.Join(columnNames(driving), ", "))
		}
		keys = append(keys, exec.SortKey{Col: col, Desc: o.desc})
	}
	limit := -1
	if p.hasLimit {
		if p.limit < 0 {
			return nil, fmt.Errorf("progopt: negative limit %d", p.limit)
		}
		limit = p.limit
	}
	se := &sortExec{keys: keys, limit: limit, states: make([]*exec.Sort, e.par.Workers())}
	for i := range se.states {
		s, err := exec.NewSort(e.par, keys, limit, agg, driving.NumRows(), e.par.VectorSize())
		if err != nil {
			return nil, err
		}
		se.states[i] = s
	}
	return se, nil
}

// graphDrivingTable resolves the plan's driving table: any data-set table can
// root the join graph.
func graphDrivingTable(d *Dataset, name string) (*columnar.Table, error) {
	if name == "" {
		return d.d.Lineitem, nil
	}
	if t := d.d.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("progopt: unknown table %q (tables: %s)", name, strings.Join(datasetTableNames(d), ", "))
}

// predicateFor builds the bound predicate for a filter step whose column has
// been resolved, checking the bound representation against the column kind.
func predicateFor(col *columnar.Column, step planStep) (*exec.Predicate, error) {
	op, err := cmpOf(step.op)
	if err != nil {
		return nil, err
	}
	pred := &exec.Predicate{Col: col, Op: op, ExtraCostInstr: step.extraCost, Label: step.label}
	isFloat := col.Kind() == columnar.Float64
	switch step.bound {
	case boundInt:
		if isFloat {
			return nil, fmt.Errorf("progopt: filter on float column %q needs a float bound, got integer %d", step.col, step.i)
		}
		pred.I = step.i
	case boundFloat:
		if !isFloat {
			return nil, fmt.Errorf("progopt: filter on %s column %q needs an integer bound, got float %v", col.Kind(), step.col, step.f)
		}
		pred.F = step.f
	default:
		return nil, fmt.Errorf("progopt: unknown bound kind %d", step.bound)
	}
	return pred, nil
}

// compileSum parses an aggregate expression — a numeric column name or a
// product of two — and resolves it against the driving table.
func compileSum(driving *columnar.Table, expr string) (*exec.Aggregate, error) {
	parts := strings.Split(expr, "*")
	cols := make([]*columnar.Column, 0, len(parts))
	for _, part := range parts {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("progopt: malformed aggregate expression %q", expr)
		}
		col := driving.Column(name)
		if col == nil {
			return nil, fmt.Errorf("progopt: unknown aggregate column %q in %q", name, driving.Name())
		}
		cols = append(cols, col)
	}
	var f func(row int) float64
	switch len(cols) {
	case 1:
		c := cols[0]
		f = func(row int) float64 { return c.Float64At(row) }
	case 2:
		a, b := cols[0], cols[1]
		f = func(row int) float64 { return a.Float64At(row) * b.Float64At(row) }
	default:
		return nil, fmt.Errorf("progopt: aggregate expression %q has %d factors; 1 or 2 supported", expr, len(cols))
	}
	return &exec.Aggregate{Cols: cols, F: f}, nil
}

// compileGroup validates the grouped aggregation, scans the key column's
// domain to size the hash tables, and reserves one table per core.
func (e *Engine) compileGroup(driving *columnar.Table, key, value string) (*groupExec, error) {
	g := driving.Column(key)
	v := driving.Column(value)
	if g == nil || v == nil {
		return nil, fmt.Errorf("progopt: unknown column %q or %q in %q", key, value, driving.Name())
	}
	dom, err := exec.ScanKeyDomain(g)
	if err != nil {
		return nil, err
	}
	ge := &groupExec{key: key, value: value, distinct: dom.Groups, tables: make([]*exec.GroupBy, e.par.Workers())}
	for i := range ge.tables {
		gb, err := exec.NewGroupBy(e.par, g, v, dom)
		if err != nil {
			return nil, err
		}
		ge.tables[i] = gb
	}
	return ge, nil
}
