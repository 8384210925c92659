package progopt

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"progopt/internal/service"
)

// Plan is a declarative description of a query over one driving table: a
// join graph (zero or more JoinOn edges) whose predicates and foreign-key
// probes are reorderable filtering steps, optionally followed by a sum
// aggregate, a grouped aggregation or an ordering. Plans are built with the
// chainable Scan/Filter/JoinOn/Sum/GroupBy/OrderBy methods, carry no engine
// or data-set state, and become executable only through Engine.Compile,
// which validates every step against a concrete data set.
//
// Builder methods never fail in place; the first construction error is
// remembered and reported by Compile, so chains stay uncluttered:
//
//	q, err := eng.Compile(ds, progopt.Scan("lineitem").
//		Filter("l_shipdate", progopt.CmpLE, cutoff).
//		Filter("l_discount", progopt.CmpGE, 0.05).
//		Sum("l_extendedprice * l_discount"))
type Plan struct {
	table string
	steps []planStep
	sum   string // aggregate expression, "" = none
	group *groupSpec
	order []orderSpec
	// limit is the Top-K bound; hasLimit distinguishes Limit(0) from "no
	// limit declared".
	limit    int
	hasLimit bool
	err      error // first builder error, surfaced by Compile
}

// stepKind discriminates plan steps.
type stepKind int

const (
	stepFilter stepKind = iota
	stepEdge
)

// boundKind records which bound representation a filter step carries.
type boundKind int

// The bound is checked against the column kind at compile time.
const (
	boundInt boundKind = iota
	boundFloat
)

// planStep is one chainable step of a Plan.
type planStep struct {
	kind stepKind

	// Filter fields.
	col       string
	op        Cmp
	i         int64
	f         float64
	bound     boundKind
	extraCost int
	label     string

	// Edge fields (JoinOn).
	from, key, to string
}

// groupSpec is a Plan's grouped aggregation.
type groupSpec struct {
	key, value string
}

// orderSpec is one ordering key of a Plan.
type orderSpec struct {
	col  string
	desc bool
}

// SortDir selects an ordering direction for Plan.OrderBy.
type SortDir int

// Ordering directions.
const (
	// Asc orders ascending (the default).
	Asc SortDir = iota
	// Desc orders descending.
	Desc
)

// Scan starts a plan over the named driving table; any table of the data set
// can drive ("" is "lineitem"), the others are reached through JoinOn.
func Scan(table string) *Plan {
	return &Plan{table: table}
}

// Filter appends a selection predicate comparing the column against bound.
// bound must be an int, int32, or int64 for integer and date columns, or a
// float32/float64 for float columns; mismatches are reported by Compile.
func (p *Plan) Filter(col string, op Cmp, bound any) *Plan {
	return p.FilterCost(col, op, bound, 0)
}

// FilterCost is Filter with an extra per-evaluation instruction cost,
// modeling an expensive predicate (a string match or UDF).
func (p *Plan) FilterCost(col string, op Cmp, bound any, extraCostInstr int) *Plan {
	step := planStep{kind: stepFilter, col: col, op: op, extraCost: extraCostInstr}
	switch b := bound.(type) {
	case int:
		step.i, step.bound = int64(b), boundInt
	case int32:
		step.i, step.bound = int64(b), boundInt
	case int64:
		step.i, step.bound = b, boundInt
	case float32:
		step.f, step.bound = float64(b), boundFloat
	case float64:
		step.f, step.bound = b, boundFloat
	default:
		p.fail(fmt.Errorf("progopt: filter on %q: unsupported bound type %T", col, bound))
		return p
	}
	p.steps = append(p.steps, step)
	return p
}

// JoinOn declares an equi-join edge of the plan's join graph: rows of table
// from reach table to through from's integer foreign-key column keyCol,
// whose values are row ids of to. Edges may be declared in any order and may
// chain off each other's tables (from must be the driving table or some
// other edge's to; Compile resolves connectivity), so star and snowflake
// shapes compose:
//
//	progopt.Scan("lineitem").
//		JoinOn("lineitem", "l_orderkey", "orders").
//		JoinOn("orders", "o_custkey", "customer").
//		Filter("o_totalprice", progopt.CmpGE, 1000.0). // pushed to orders
//		Filter("c_acctbal", progopt.CmpGE, 0.0)        // pushed to customer
//
// Predicates on joined tables are pushed to their owning table's edge
// automatically; a joined table with no predicate still pays its probe. The
// compiled operators are ordered by the statistics-free greedy orderer
// (smallest build relation first under connectivity) and remain fully
// permutable, so adaptive modes reorder across the whole join-graph search
// space.
func (p *Plan) JoinOn(from, keyCol, to string) *Plan {
	p.steps = append(p.steps, planStep{kind: stepEdge, from: from, key: keyCol, to: to})
	return p
}

// Label names the most recently appended step, overriding the generated
// operator name in plans and reports.
func (p *Plan) Label(name string) *Plan {
	if len(p.steps) == 0 {
		p.fail(fmt.Errorf("progopt: Label(%q) before any step", name))
		return p
	}
	p.steps[len(p.steps)-1].label = name
	return p
}

// Sum aggregates the given expression over qualifying tuples: either a
// single numeric column ("l_extendedprice") or a product of two
// ("l_extendedprice * l_discount").
func (p *Plan) Sum(expr string) *Plan {
	p.sum = expr
	return p
}

// GroupBy aggregates qualifying tuples as SELECT key, SUM(value), COUNT(*)
// GROUP BY key. The key column must be integer-kind; the hash table is sized
// from the key column's actual domain at compile time.
func (p *Plan) GroupBy(key, value string) *Plan {
	p.group = &groupSpec{key: key, value: value}
	return p
}

// OrderBy emits the qualifying tuples ordered by the named driving-table
// column, ascending unless Desc is given. Repeated OrderBy calls append
// secondary keys (earlier calls take precedence); remaining ties break by
// table row order, so the output is fully deterministic. The ordered rows
// appear in ExecResult.Rows, each carrying its sort-key values and — when
// the plan also has Sum — the per-row value of the aggregate expression.
func (p *Plan) OrderBy(col string, dir ...SortDir) *Plan {
	spec := orderSpec{col: col}
	switch len(dir) {
	case 0:
	case 1:
		switch dir[0] {
		case Asc:
		case Desc:
			spec.desc = true
		default:
			p.fail(fmt.Errorf("progopt: OrderBy(%q): unknown direction %d", col, int(dir[0])))
			return p
		}
	default:
		p.fail(fmt.Errorf("progopt: OrderBy(%q): at most one direction, got %d", col, len(dir)))
		return p
	}
	p.order = append(p.order, spec)
	return p
}

// Limit truncates the ordered output to its first n rows (Top-K). It
// requires OrderBy and n >= 0, both validated by Compile; a limited plan
// executes the cache-conscious bounded-heap path instead of the full
// run-merge sort.
func (p *Plan) Limit(n int) *Plan {
	p.limit, p.hasLimit = n, true
	return p
}

// fail records the first builder error for Compile to report.
func (p *Plan) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// fingerprintTable returns the canonical driving-table name ("" and
// "lineitem" are the same scan).
func (p *Plan) fingerprintTable() string {
	if p.table == "" {
		return "lineitem"
	}
	return p.table
}

// fingerprint is the plan's fingerprint over a data set of generation gen:
// the driving table, the generation and the sorted terms, hashed without
// building a string. The stack buffers hold the terms of a plan of a dozen
// steps; a longer plan grows them.
func (p *Plan) fingerprint(gen uint64) (service.Fingerprint, error) {
	var buf [512]byte
	var spans [16][2]int
	b, sp, err := p.fingerprintTerms(buf[:0], spans[:0])
	if err != nil {
		return service.Fingerprint{}, err
	}
	return service.ComputeSpans(p.fingerprintTable(), gen, b, sp), nil
}

// fingerprintTerms encodes each plan step, the aggregate, and the grouping
// as a canonical term appended to buf, and returns the grown buffer and
// spans with each term's [start, end) in it appended. Terms are hashed
// order-independently (the optimizer permutes operators anyway), bounds are
// encoded exactly (hex floats, full integers), and labels participate so
// differently-annotated plans do not collide in the plan cache. Together
// with the driving table and the data-set generation, the sorted terms form
// the plan fingerprint that keys a workload server's plan and feedback
// caches.
func (p *Plan) fingerprintTerms(buf []byte, spans [][2]int) ([]byte, [][2]int, error) {
	if p.err != nil {
		return nil, nil, p.err
	}
	// end closes the term that began where the last one ended.
	start := len(buf)
	end := func() {
		spans = append(spans, [2]int{start, len(buf)})
		start = len(buf)
	}
	for _, step := range p.steps {
		switch step.kind {
		case stepFilter:
			buf = append(buf, "f|"...)
			buf = append(buf, step.col...)
			buf = append(buf, '|')
			buf = append(buf, step.op...)
			switch step.bound {
			case boundInt:
				buf = append(buf, "|i:"...)
				buf = strconv.AppendInt(buf, step.i, 10)
			case boundFloat:
				buf = append(buf, "|x:"...)
				buf = strconv.AppendFloat(buf, step.f, 'x', -1, 64)
			default:
				return nil, nil, fmt.Errorf("progopt: unknown bound kind %d", step.bound)
			}
			if step.extraCost != 0 {
				buf = append(buf, "|c:"...)
				buf = strconv.AppendInt(buf, int64(step.extraCost), 10)
			}
		case stepEdge:
			// Graph edges canonicalize by content alone: the order-independent
			// hash then makes isomorphic graphs (same edges, any declaration
			// order) collide exactly, while any shape difference — another key
			// column, a re-rooted edge, an extra table — changes a term.
			buf = append(buf, "e|"...)
			buf = append(buf, step.from...)
			buf = append(buf, '|')
			buf = append(buf, step.key...)
			buf = append(buf, '|')
			buf = append(buf, step.to...)
		default:
			return nil, nil, fmt.Errorf("progopt: unknown plan step kind %d", step.kind)
		}
		if step.label != "" {
			buf = append(buf, "|l:"...)
			buf = append(buf, step.label...)
		}
		end()
	}
	if p.sum != "" {
		// Canonicalize the aggregate expression: trimmed factors in sorted
		// order (float multiplication commutes bitwise).
		var fs [8]string
		factors := fs[:0]
		for rest, more := p.sum, true; more; {
			var f string
			f, rest, more = strings.Cut(rest, "*")
			factors = append(factors, strings.TrimSpace(f))
		}
		slices.Sort(factors)
		buf = append(buf, "s|"...)
		for i, f := range factors {
			if i > 0 {
				buf = append(buf, '*')
			}
			buf = append(buf, f...)
		}
		end()
	}
	if p.group != nil {
		buf = append(buf, "g|"...)
		buf = append(buf, p.group.key...)
		buf = append(buf, '|')
		buf = append(buf, p.group.value...)
		end()
	}
	if len(p.order) > 0 {
		// All ordering keys form one term: unlike filter steps, sort-key
		// precedence is semantic, and a single term preserves it through the
		// order-independent hash.
		buf = append(buf, 'o')
		for _, o := range p.order {
			buf = append(buf, '|')
			buf = append(buf, o.col...)
			if o.desc {
				buf = append(buf, ":d"...)
			} else {
				buf = append(buf, ":a"...)
			}
		}
		end()
	}
	if p.hasLimit {
		buf = append(buf, "k|"...)
		buf = strconv.AppendInt(buf, int64(p.limit), 10)
		end()
	}
	return buf, spans, nil
}
