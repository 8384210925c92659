package progopt

import (
	"fmt"
	"sort"
	"strings"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
)

// This file compiles plans. Every plan is a join graph: the equi-join edges
// declared with JoinOn — none, for a filter-only plan — are resolved into a
// tree rooted at the driving table, and every edge then compiles to one or
// more *driving-row* operators: a (possibly multi-hop) FK probe from the
// driving table along the tree path to the edge's table, filtered by the
// predicates pushed down to that table. Because each operator filters the
// same driving-row stream independently, the full operator list stays
// permutable — the progressive and micro-adaptive modes reorder joins across
// the whole search space with the same machinery (and the same bit-identity
// guarantees) as filter permutations. The default order is the
// statistics-free greedy one: driving-table predicates first, in declaration
// order, then edges smallest-build-relation-first under the connectivity
// constraint (core.GreedyGraphOrder).

// graphEdge is one resolved JoinOn edge during compilation.
type graphEdge struct {
	from, to string
	// path is the probe path from the driving table: path[0] is a
	// driving-table column, each subsequent column belongs to the table the
	// previous one indexes, and the last one's values are row ids of to.
	path []*columnar.Column
	// rows is |to|.
	rows int
	// preds are the predicates pushed down to to, in declaration order.
	preds []*exec.Predicate
	// label is the JoinOn step's Label, applied to the edge's first operator.
	label string
}

// compileGraph resolves a plan's join graph against the data set and returns
// the compiled, greedy-ordered operator list plus the edge descriptions
// Explain reports (in greedy order).
func (e *Engine) compileGraph(d *Dataset, driving *columnar.Table, p *Plan) ([]exec.Op, []JoinEdgeExplain, error) {
	edges, err := resolveEdges(d, driving, p)
	if err != nil {
		return nil, nil, err
	}
	var drivingPreds []*exec.Predicate
	for _, step := range p.steps {
		if step.kind != stepFilter {
			continue
		}
		pred, err := routeFilter(d, driving, edges, step)
		if err != nil {
			return nil, nil, err
		}
		if pred != nil {
			drivingPreds = append(drivingPreds, pred)
		}
	}

	// Statistics-free greedy default order: driving predicates first (they
	// probe nothing), then edges smallest-build-first under connectivity.
	stats := make([]core.GraphJoin, len(edges))
	for i, ge := range edges {
		stats[i] = core.GraphJoin{Name: ge.to, From: ge.from, To: ge.to, BuildRows: ge.rows}
	}
	order, err := core.GreedyGraphOrder(driving.Name(), stats)
	if err != nil {
		return nil, nil, fmt.Errorf("progopt: ordering join graph: %w", err)
	}

	ops := make([]exec.Op, 0, len(drivingPreds)+len(edges))
	for _, pred := range drivingPreds {
		ops = append(ops, pred)
	}
	var explains []JoinEdgeExplain
	for _, i := range order {
		ge := edges[i]
		eops, err := e.compileEdgeOps(ge)
		if err != nil {
			return nil, nil, err
		}
		ops = append(ops, eops...)
		explains = append(explains, JoinEdgeExplain{
			From:      ge.from,
			To:        ge.to,
			Key:       ge.path[len(ge.path)-1].Name(),
			BuildRows: ge.rows,
			Hops:      len(ge.path),
			Pushed:    len(ge.preds),
		})
	}
	return ops, explains, nil
}

// compileEdgeOps lowers one resolved edge into operators: one FK probe per
// pushed-down predicate (a table with several predicates repeats the probe —
// each operator stays an independent driving-row filter), or a single
// filterless probe when nothing was pushed down.
func (e *Engine) compileEdgeOps(ge graphEdge) ([]exec.Op, error) {
	key, via := ge.path[0], ge.path[1:]
	preds := ge.preds
	if len(preds) == 0 {
		preds = []*exec.Predicate{nil}
	}
	ops := make([]exec.Op, 0, len(preds))
	for i, pred := range preds {
		label := ""
		if i == 0 {
			label = ge.label
		}
		j, err := exec.NewFKJoinVia(e.cpu, key, via, ge.rows, pred, label)
		if err != nil {
			return nil, fmt.Errorf("progopt: join to %q: %w", ge.to, err)
		}
		ops = append(ops, j)
	}
	return ops, nil
}

// resolveEdges validates the plan's JoinOn steps against the data set and
// attaches them to the driving table, computing each edge's probe path.
// Every error names the offending table or column and the valid
// alternatives.
func resolveEdges(d *Dataset, driving *columnar.Table, p *Plan) ([]graphEdge, error) {
	var steps []planStep
	for _, s := range p.steps {
		if s.kind == stepEdge {
			steps = append(steps, s)
		}
	}
	joined := map[string]bool{driving.Name(): true}
	for _, s := range steps {
		for _, t := range []string{s.from, s.to} {
			if d.d.Table(t) == nil {
				return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): unknown table %q (tables: %s)",
					s.from, s.key, s.to, t, strings.Join(datasetTableNames(d), ", "))
			}
		}
		if s.from == s.to {
			return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): a table cannot join itself", s.from, s.key, s.to)
		}
		if joined[s.to] {
			return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): table %q is already in the plan (each table joins once; the graph is a tree rooted at %q)",
				s.from, s.key, s.to, s.to, driving.Name())
		}
		joined[s.to] = true
	}

	// Attach edges to the growing tree: an edge is placeable once its From
	// table is the driving table or some placed edge's To. Declaration order
	// does not matter; unplaceable leftovers mean the graph is disconnected.
	paths := map[string][]*columnar.Column{driving.Name(): {}}
	edges := make([]graphEdge, 0, len(steps))
	pending := steps
	for len(pending) > 0 {
		next := pending[:0:0]
		progressed := false
		for _, s := range pending {
			base, ok := paths[s.from]
			if !ok {
				next = append(next, s)
				continue
			}
			progressed = true
			// The From table's columns: the driving table may be a
			// storage-decoded image, every other table lives in RAM.
			fromTab := driving
			if s.from != driving.Name() {
				fromTab = d.d.Table(s.from)
			}
			key, err := resolveJoinKey(d, fromTab, s)
			if err != nil {
				return nil, err
			}
			path := append(append([]*columnar.Column{}, base...), key)
			paths[s.to] = path
			edges = append(edges, graphEdge{
				from: s.from, to: s.to,
				path: path, rows: d.d.TableRows(s.to), label: s.label,
			})
		}
		if !progressed {
			var stuck []string
			for _, s := range next {
				stuck = append(stuck, fmt.Sprintf("%s→%s", s.from, s.to))
			}
			var reach []string
			for t := range paths {
				reach = append(reach, t)
			}
			sort.Strings(reach)
			return nil, fmt.Errorf("progopt: join graph is disconnected: edge(s) %s hang off tables the plan never reaches (reachable from %q: %s)",
				strings.Join(stuck, ", "), driving.Name(), strings.Join(reach, ", "))
		}
		pending = next
	}
	return edges, nil
}

// resolveJoinKey validates one edge's key column: it must exist in the From
// table, be integer-kind, and every value must be a valid row id of the To
// table — checked here, on the host, so a bad edge is a Compile error rather
// than a simulated-probe panic.
func resolveJoinKey(d *Dataset, fromTab *columnar.Table, s planStep) (*columnar.Column, error) {
	key := fromTab.Column(s.key)
	if key == nil {
		return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): table %q has no column %q (columns: %s)",
			s.from, s.key, s.to, s.from, s.key, strings.Join(columnNames(fromTab), ", "))
	}
	if key.I64() == nil && key.I32() == nil {
		return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): join key %q is %v, need an integer foreign-key column",
			s.from, s.key, s.to, s.key, key.Kind())
	}
	rows := d.d.TableRows(s.to)
	lo, hi := key.IntRange()
	if lo < 0 || hi >= int64(rows) {
		return nil, fmt.Errorf("progopt: JoinOn(%q, %q, %q): key values span [%d, %d], not valid row ids of %q (which has %d rows)",
			s.from, s.key, s.to, lo, hi, s.to, rows)
	}
	return key, nil
}

// routeFilter resolves one filter step in a graph plan: a driving-table
// predicate is returned for the caller to place, a predicate on a joined
// table is pushed down onto its edge (and nil returned), anything else is an
// error naming the owning table and the joined alternatives.
func routeFilter(d *Dataset, driving *columnar.Table, edges []graphEdge, step planStep) (*exec.Predicate, error) {
	if col := driving.Column(step.col); col != nil {
		return predicateFor(col, step)
	}
	for i := range edges {
		tab := d.d.Table(edges[i].to)
		if col := tab.Column(step.col); col != nil {
			pred, err := predicateFor(col, step)
			if err != nil {
				return nil, err
			}
			edges[i].preds = append(edges[i].preds, pred)
			return nil, nil
		}
	}
	// Not a column of any joined table: name the table that owns it, or, for
	// a typo, what each joined table offers.
	joined := []*columnar.Table{driving}
	for _, ge := range edges {
		joined = append(joined, d.d.Table(ge.to))
	}
	sort.Slice(joined, func(a, b int) bool { return joined[a].Name() < joined[b].Name() })
	names, alts := make([]string, len(joined)), make([]string, len(joined))
	for i, t := range joined {
		names[i] = t.Name()
		alts[i] = t.Name() + ": " + strings.Join(columnNames(t), ", ")
	}
	for _, name := range datasetTableNames(d) {
		if d.d.Table(name).Column(step.col) != nil {
			return nil, fmt.Errorf("progopt: filter column %q belongs to %q, which this plan does not join (joined tables: %s; add JoinOn(..., ..., %q) to reach it)",
				step.col, name, strings.Join(names, ", "), name)
		}
	}
	return nil, fmt.Errorf("progopt: unknown column %q in any joined table (%s)",
		step.col, strings.Join(alts, "; "))
}

// datasetTableNames returns the data set's table names, sorted.
func datasetTableNames(d *Dataset) []string {
	names := make([]string, 0, len(d.d.Tables()))
	for name := range d.d.Tables() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// columnNames returns a table's column names in declaration order.
func columnNames(t *columnar.Table) []string {
	names := make([]string, 0, t.NumCols())
	for _, c := range t.Columns() {
		names = append(names, c.Name())
	}
	return names
}
