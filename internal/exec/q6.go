package exec

import (
	"fmt"

	"progopt/internal/columnar"
	"progopt/internal/tpch"
)

// Q6 builds the original TPC-H Query 6 over the data set:
//
//	SELECT sum(l_extendedprice * l_discount) FROM lineitem
//	WHERE l_shipdate >= DATE AND l_shipdate < DATE + 1 year
//	  AND l_discount BETWEEN 0.06-0.01 AND 0.06+0.01
//	  AND l_quantity < 24
//
// The five atomic comparisons are the five reorderable predicates of the
// paper's Figure 11 (5! = 120 PEOs).
func Q6(d *tpch.Dataset) (*Query, error) {
	return q6WithShipdateWindow(d, tpch.Q6ShipdateLo(), tpch.Q6ShipdateHi())
}

// q6WithShipdateWindow is Q6 with shipdate bounds [lo, hi); the sorted
// data-set experiment (§5.4) relies on both bounds being present.
func q6WithShipdateWindow(d *tpch.Dataset, lo, hi int32) (*Query, error) {
	li := d.Lineitem
	ship := li.Column("l_shipdate")
	disc := li.Column("l_discount")
	qty := li.Column("l_quantity")
	price := li.Column("l_extendedprice")
	if ship == nil || disc == nil || qty == nil || price == nil {
		return nil, fmt.Errorf("exec: data set lacks Q6 columns")
	}
	q := &Query{
		Table: li,
		Ops: []Op{
			&Predicate{Col: ship, Op: GE, I: int64(lo), Label: "shipdate>=lo"},
			&Predicate{Col: ship, Op: LT, I: int64(hi), Label: "shipdate<hi"},
			&Predicate{Col: disc, Op: GE, F: tpch.Q6DiscountLo - 1e-9, Label: "discount>=0.05"},
			&Predicate{Col: disc, Op: LE, F: tpch.Q6DiscountHi + 1e-9, Label: "discount<=0.07"},
			&Predicate{Col: qty, Op: LT, I: tpch.Q6QuantityBound, Label: "quantity<24"},
		},
		Agg: q6Agg(price, disc),
	}
	return q, nil
}

// Q6Shipdate builds the introduction's modified Q6 (Figure 1):
//
//	WHERE l_shipdate <= VALUE AND l_quantity < 24
//	  AND l_discount BETWEEN 0.05 AND 0.07
//
// Four predicates, 4! = 24 PEOs, with the shipdate cutoff as the selectivity
// degree of freedom.
func Q6Shipdate(d *tpch.Dataset, cutoff int32) (*Query, error) {
	li := d.Lineitem
	ship := li.Column("l_shipdate")
	disc := li.Column("l_discount")
	qty := li.Column("l_quantity")
	price := li.Column("l_extendedprice")
	if ship == nil || disc == nil || qty == nil || price == nil {
		return nil, fmt.Errorf("exec: data set lacks Q6 columns")
	}
	q := &Query{
		Table: li,
		Ops: []Op{
			&Predicate{Col: ship, Op: LE, I: int64(cutoff), Label: "shipdate<=v"},
			&Predicate{Col: qty, Op: LT, I: tpch.Q6QuantityBound, Label: "quantity<24"},
			&Predicate{Col: disc, Op: GE, F: tpch.Q6DiscountLo - 1e-9, Label: "discount>=0.05"},
			&Predicate{Col: disc, Op: LE, F: tpch.Q6DiscountHi + 1e-9, Label: "discount<=0.07"},
		},
		Agg: q6Agg(price, disc),
	}
	return q, nil
}

func q6Agg(price, disc *columnar.Column) *Aggregate {
	p, dc := price.F64(), disc.F64()
	return &Aggregate{
		Cols: []*columnar.Column{price, disc},
		F:    func(row int) float64 { return p[row] * dc[row] },
	}
}

// Permutations returns all n! permutations of [0,n) (swap-enumeration
// order). n must be small; the experiments use n <= 5 (120 orders).
func Permutations(n int) [][]int {
	if n < 0 || n > 8 {
		panic(fmt.Sprintf("exec: refusing to enumerate %d! permutations", n))
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
	return out
}
