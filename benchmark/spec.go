package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"progopt"
	"progopt/internal/columnar"
	"progopt/internal/tpch"
)

// filterSpec is one selection predicate of a querySpec. val is an int64 for
// integer and date columns and a float64 for float columns.
type filterSpec struct {
	col string
	op  progopt.Cmp
	val any
}

// querySpec declares one benchmark query once, so that the plan handed to the
// engine and the oracle that checks the engine's answer are derived from the
// same description but share no evaluation code.
type querySpec struct {
	name string
	// seed is the seed of the data set the query runs over.
	seed int64
	// edges are join-graph edges {from, key column, to}.
	edges   [][3]string
	filters []filterSpec
	// sum is the aggregate expression: "" for none, one column, or "a * b".
	sum string
	// groupKey/groupVal declare SELECT key, SUM(val), COUNT(*) GROUP BY key.
	groupKey, groupVal string
	// orderCol declares ORDER BY orderCol DESC LIMIT limit.
	orderCol string
	limit    int
}

// plan builds the facade plan for the spec.
func (q querySpec) plan() *progopt.Plan {
	p := progopt.Scan("lineitem")
	for _, e := range q.edges {
		p.JoinOn(e[0], e[1], e[2])
	}
	for _, f := range q.filters {
		p.Filter(f.col, f.op, f.val)
	}
	if q.sum != "" {
		p.Sum(q.sum)
	}
	if q.groupKey != "" {
		p.GroupBy(q.groupKey, q.groupVal)
	}
	if q.orderCol != "" {
		p.OrderBy(q.orderCol, progopt.Desc).Limit(q.limit)
	}
	return p
}

// answer is the oracle's result for one querySpec.
type answer struct {
	qualifying int64
	sum        float64
	// groups maps key to {sum, count}; nil unless the spec groups.
	groups map[int64][2]float64
	// topKeys are the limit largest order-column values, descending; nil
	// unless the spec orders.
	topKeys []float64
}

// oracleData is the independent view of one seeded data set: the tables as
// tpch.Generate emits them, in natural row order. Every checked quantity
// (cardinality, sums, group sums, top-k key values) is invariant under the
// lineitem reordering the engine's data set applies, so the oracle never
// needs the engine's row order.
type oracleData struct {
	d *tpch.Dataset
}

func newOracleData(lineitems int, seed int64) (*oracleData, error) {
	d, err := tpch.Generate(tpch.Config{Lineitems: lineitems, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("oracle data: %w", err)
	}
	return &oracleData{d: d}, nil
}

// tableOf maps a column to its table by the TPC-H column prefix.
func tableOf(col string) (string, error) {
	switch {
	case strings.HasPrefix(col, "l_"):
		return "lineitem", nil
	case strings.HasPrefix(col, "o_"):
		return "orders", nil
	case strings.HasPrefix(col, "p_"):
		return "part", nil
	case strings.HasPrefix(col, "c_"):
		return "customer", nil
	}
	return "", fmt.Errorf("oracle: column %q belongs to no known table", col)
}

// column resolves a column and the per-lineitem-row index into its table.
func (o *oracleData) column(col string) (*columnar.Column, func(row int) int, error) {
	tab, err := tableOf(col)
	if err != nil {
		return nil, nil, err
	}
	c := o.d.Table(tab).Column(col)
	if c == nil {
		return nil, nil, fmt.Errorf("oracle: table %s has no column %q", tab, col)
	}
	okey := o.d.Lineitem.Column("l_orderkey").I64()
	pkey := o.d.Lineitem.Column("l_partkey").I64()
	ckey := o.d.Orders.Column("o_custkey").I64()
	var at func(row int) int
	switch tab {
	case "lineitem":
		at = func(row int) int { return row }
	case "orders":
		at = func(row int) int { return int(okey[row]) }
	case "part":
		at = func(row int) int { return int(pkey[row]) }
	case "customer":
		at = func(row int) int { return int(ckey[okey[row]]) }
	}
	return c, at, nil
}

func cmpFloat(v float64, op progopt.Cmp, b float64) bool {
	switch op {
	case progopt.CmpLE:
		return v <= b
	case progopt.CmpLT:
		return v < b
	case progopt.CmpGE:
		return v >= b
	case progopt.CmpGT:
		return v > b
	}
	return v == b
}

func cmpInt(v int64, op progopt.Cmp, b int64) bool {
	switch op {
	case progopt.CmpLE:
		return v <= b
	case progopt.CmpLT:
		return v < b
	case progopt.CmpGE:
		return v >= b
	case progopt.CmpGT:
		return v > b
	}
	return v == b
}

// answer evaluates the spec with plain loops over the generated columns.
func (o *oracleData) answer(q querySpec) (answer, error) {
	n := o.d.Lineitem.NumRows()
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for _, f := range q.filters {
		c, at, err := o.column(f.col)
		if err != nil {
			return answer{}, err
		}
		switch b := f.val.(type) {
		case int64:
			for r := 0; r < n; r++ {
				keep[r] = keep[r] && cmpInt(c.Int64At(at(r)), f.op, b)
			}
		case float64:
			for r := 0; r < n; r++ {
				keep[r] = keep[r] && cmpFloat(c.Float64At(at(r)), f.op, b)
			}
		default:
			return answer{}, fmt.Errorf("oracle: filter %s has bound of type %T", f.col, f.val)
		}
	}
	var factors []*columnar.Column
	if q.sum != "" {
		for _, name := range strings.Split(q.sum, "*") {
			c := o.d.Lineitem.Column(strings.TrimSpace(name))
			if c == nil {
				return answer{}, fmt.Errorf("oracle: sum factor %q is no lineitem column", name)
			}
			factors = append(factors, c)
		}
	}
	var a answer
	var gk, gv, oc *columnar.Column
	if q.groupKey != "" {
		gk, gv = o.d.Lineitem.Column(q.groupKey), o.d.Lineitem.Column(q.groupVal)
		a.groups = map[int64][2]float64{}
	}
	if q.orderCol != "" {
		oc = o.d.Lineitem.Column(q.orderCol)
		a.topKeys = []float64{}
	}
	for r := 0; r < n; r++ {
		if !keep[r] {
			continue
		}
		a.qualifying++
		if factors != nil {
			v := 1.0
			for _, c := range factors {
				v *= c.Float64At(r)
			}
			a.sum += v
		}
		if gk != nil {
			g := a.groups[gk.Int64At(r)]
			g[0] += gv.Float64At(r)
			g[1]++
			a.groups[gk.Int64At(r)] = g
		}
		if oc != nil {
			a.topKeys = append(a.topKeys, oc.Float64At(r))
		}
	}
	if oc != nil {
		sort.Sort(sort.Reverse(sort.Float64Slice(a.topKeys)))
		if len(a.topKeys) > q.limit {
			a.topKeys = a.topKeys[:q.limit]
		}
	}
	return a, nil
}

// closeTo reports whether got is within 1e-9 relative of want: the engine and
// the oracle add the same terms in different orders.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}

// check compares an engine result against the oracle's answer and returns a
// description of the first mismatch, or "" when they agree.
func (a answer) check(q querySpec, r progopt.ExecResult) string {
	if r.Qualifying != a.qualifying {
		return fmt.Sprintf("qualifying %d, oracle %d", r.Qualifying, a.qualifying)
	}
	if q.sum != "" && !closeTo(r.Sum, a.sum) {
		return fmt.Sprintf("sum %v, oracle %v", r.Sum, a.sum)
	}
	if a.groups != nil {
		if len(r.Groups) != len(a.groups) {
			return fmt.Sprintf("%d groups, oracle %d", len(r.Groups), len(a.groups))
		}
		for _, g := range r.Groups {
			w, ok := a.groups[g.Key]
			if !ok || float64(g.Count) != w[1] || !closeTo(g.Sum, w[0]) {
				return fmt.Sprintf("group %d = {%v %d}, oracle {%v %v}", g.Key, g.Sum, g.Count, w[0], w[1])
			}
		}
	}
	if a.topKeys != nil {
		if len(r.Rows) != len(a.topKeys) {
			return fmt.Sprintf("%d ordered rows, oracle %d", len(r.Rows), len(a.topKeys))
		}
		for i, row := range r.Rows {
			if len(row.Keys) != 1 || row.Keys[0] != a.topKeys[i] {
				return fmt.Sprintf("ordered row %d has key %v, oracle %v", i, row.Keys, a.topKeys[i])
			}
		}
	}
	return ""
}
