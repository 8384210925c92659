package tpch

import (
	"math"
	"sort"
	"testing"
	"time"

	"progopt/internal/columnar"
)

func smallSet(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(Config{Lineitems: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Lineitems: 0}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Generate(Config{Lineitems: -5}); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	d := smallSet(t)
	if d.Lineitem.NumRows() != 20000 {
		t.Errorf("lineitem rows = %d", d.Lineitem.NumRows())
	}
	if d.Orders.NumRows() != d.NumOrders || d.Part.NumRows() != d.NumParts {
		t.Error("build tables disagree with counts")
	}
	// dbgen ratios: ~4 lineitems per order, parts ~8x fewer than orders.
	ratio := float64(d.Lineitem.NumRows()) / float64(d.NumOrders)
	if ratio < 3 || ratio > 5 {
		t.Errorf("lineitems per order = %v, want ~4", ratio)
	}
	pr := float64(d.NumOrders) / float64(d.NumParts)
	if pr < 5 || pr > 10 {
		t.Errorf("orders/parts = %v, want ~7.5", pr)
	}
	for _, name := range []string{"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"} {
		if d.Lineitem.Column(name) == nil {
			t.Errorf("missing lineitem column %q", name)
		}
	}
}

func TestGenerateDomains(t *testing.T) {
	d := smallSet(t)
	for i, q := range d.Lineitem.Column("l_quantity").I64() {
		if q < 1 || q > 50 {
			t.Fatalf("row %d: quantity %d outside [1,50]", i, q)
		}
	}
	for i, disc := range d.Lineitem.Column("l_discount").F64() {
		if disc < 0 || disc > 0.10+1e-9 {
			t.Fatalf("row %d: discount %v outside [0,0.10]", i, disc)
		}
	}
	for i, s := range d.Lineitem.Column("l_shipdate").I32() {
		if s < StartDate || s > EndShipDate {
			t.Fatalf("row %d: shipdate %d outside domain", i, s)
		}
	}
	numOrders := int64(d.NumOrders)
	for i, k := range d.Lineitem.Column("l_orderkey").I64() {
		if k < 0 || k >= numOrders {
			t.Fatalf("row %d: orderkey %d outside [0,%d)", i, k, numOrders)
		}
	}
	numParts := int64(d.NumParts)
	for i, k := range d.Lineitem.Column("l_partkey").I64() {
		if k < 0 || k >= numParts {
			t.Fatalf("row %d: partkey %d outside [0,%d)", i, k, numParts)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{Lineitems: 5000, Seed: 7})
	b := MustGenerate(Config{Lineitems: 5000, Seed: 7})
	sa := a.Lineitem.Column("l_shipdate").I32()
	sb := b.Lineitem.Column("l_shipdate").I32()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := MustGenerate(Config{Lineitems: 5000, Seed: 8})
	sc := c.Lineitem.Column("l_shipdate").I32()
	diff := 0
	for i := range sa {
		if sa[i] != sc[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical data")
	}
}

func TestNaturalOrderIsCoClustered(t *testing.T) {
	d := smallSet(t)
	keys := d.Lineitem.Column("l_orderkey").I64()
	if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
		t.Error("natural order must have ascending orderkeys (co-clustered with orders)")
	}
}

func TestNaturalOrderIsWeaklyClusteredOnShipdate(t *testing.T) {
	// Bulk load: shipdate is not sorted but strongly correlated with row
	// position. Spearman-ish check: correlation of rank vs position > 0.9.
	d := smallSet(t)
	ship := d.Lineitem.Column("l_shipdate").I32()
	n := len(ship)
	var sx, sy, sxx, syy, sxy float64
	for i, s := range ship {
		x, y := float64(i), float64(s)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	nf := float64(n)
	corr := (nf*sxy - sx*sy) / math.Sqrt((nf*sxx-sx*sx)*(nf*syy-sy*sy))
	if corr < 0.9 {
		t.Errorf("shipdate/position correlation %v, want > 0.9 (weak clustering)", corr)
	}
	sorted := sort.SliceIsSorted(ship, func(a, b int) bool { return ship[a] < ship[b] })
	if sorted {
		t.Error("natural order should be weakly clustered, not fully sorted")
	}
}

func TestReorderings(t *testing.T) {
	d := smallSet(t)

	s := d.ReorderLineitem(OrderingShipdateSorted, 2)
	ship := s.Lineitem.Column("l_shipdate").I32()
	if !sort.SliceIsSorted(ship, func(a, b int) bool { return ship[a] < ship[b] }) {
		t.Error("sorted ordering not sorted")
	}

	c := d.ReorderLineitem(OrderingClusteredMonth, 2)
	cs := c.Lineitem.Column("l_shipdate").I32()
	// Months must be non-decreasing even though days within are shuffled.
	for i := 1; i < len(cs); i++ {
		if MonthID(cs[i]) < MonthID(cs[i-1]) {
			t.Fatalf("clustered ordering: month decreased at row %d", i)
		}
	}
	if sort.SliceIsSorted(cs, func(a, b int) bool { return cs[a] < cs[b] }) {
		t.Error("clustered ordering is fully sorted; shuffle had no effect")
	}

	r := d.ReorderLineitem(OrderingRandom, 2)
	rs := r.Lineitem.Column("l_shipdate").I32()
	if sort.SliceIsSorted(rs, func(a, b int) bool { return rs[a] < rs[b] }) {
		t.Error("random ordering came out sorted")
	}

	// All reorderings preserve the multiset of rows: compare quantity sums.
	sum := func(tb *columnar.Table) int64 {
		var s int64
		for _, v := range tb.Column("l_quantity").I64() {
			s += v
		}
		return s
	}
	want := sum(d.Lineitem)
	for _, ds := range []*Dataset{s, c, r} {
		if got := sum(ds.Lineitem); got != want {
			t.Errorf("reordering changed data: quantity sum %d != %d", got, want)
		}
	}
}

func TestReorderingKeepsRowAlignment(t *testing.T) {
	// Rows must be permuted as units: (quantity, shipdate) pairs survive.
	d := MustGenerate(Config{Lineitems: 3000, Seed: 3})
	type pair struct {
		q int64
		s int32
	}
	count := map[pair]int{}
	q := d.Lineitem.Column("l_quantity").I64()
	sd := d.Lineitem.Column("l_shipdate").I32()
	for i := range q {
		count[pair{q[i], sd[i]}]++
	}
	r := d.ReorderLineitem(OrderingRandom, 9)
	rq := r.Lineitem.Column("l_quantity").I64()
	rs := r.Lineitem.Column("l_shipdate").I32()
	for i := range rq {
		count[pair{rq[i], rs[i]}]--
	}
	for p, c := range count {
		if c != 0 {
			t.Fatalf("pair %v count off by %d after permutation", p, c)
		}
	}
}

// TestWindowReordering: a windowed shuffle over the shipdate-sorted order
// keeps it at window 1 and loses more of it the wider the window.
func TestWindowReordering(t *testing.T) {
	d := smallSet(t).ReorderLineitem(OrderingShipdateSorted, 4)
	w1 := d.ShuffleLineitemWindow(1, 4)
	ship := w1.Lineitem.Column("l_shipdate").I32()
	if !sort.SliceIsSorted(ship, func(a, b int) bool { return ship[a] < ship[b] }) {
		t.Error("window=1 must be fully sorted")
	}
	inv := func(ds *Dataset) int {
		s := ds.Lineitem.Column("l_shipdate").I32()
		c := 0
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				c++
			}
		}
		return c
	}
	small := inv(d.ShuffleLineitemWindow(16, 4))
	large := inv(d.ShuffleLineitemWindow(20000, 4))
	if small == 0 || large <= small {
		t.Errorf("window shuffle inversions: 16->%d, 20000->%d; want 0 < small < large", small, large)
	}
}

func TestShipdateCutoffSelectivity(t *testing.T) {
	d := smallSet(t)
	ship := d.Lineitem.Column("l_shipdate").I32()
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		cut := d.ShipdateCutoff(sel)
		match := 0
		for _, s := range ship {
			if s <= cut {
				match++
			}
		}
		got := float64(match) / float64(len(ship))
		if math.Abs(got-sel) > 0.02+sel*0.2 {
			t.Errorf("cutoff for sel=%v yields %v", sel, got)
		}
	}
	if d.ShipdateCutoff(0) >= StartDate {
		t.Error("sel=0 cutoff must precede all ship dates")
	}
	if d.ShipdateCutoff(1) < EndShipDate {
		t.Error("sel=1 cutoff must cover all ship dates")
	}
}

// TestShipdateCutoffMatchesSortedQuantile pins the counting-pass quantile to
// the value a sorted copy yields, on random and sorted row orders, at the
// edges of the selectivity range and inside it.
func TestShipdateCutoffMatchesSortedQuantile(t *testing.T) {
	base := smallSet(t)
	for _, o := range []Ordering{OrderingRandom, OrderingShipdateSorted} {
		d := base.ReorderLineitem(o, 3)
		ship := d.Lineitem.Column("l_shipdate").I32()
		sorted := append([]int32(nil), ship...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n := float64(len(ship))
		for _, sel := range []float64{0, 1 / n, 0.001, 0.15, 0.5, 0.8, 1 - 1/n, 1} {
			want := QuantileSortedInt32(sorted, sel)
			switch {
			case sel <= 0:
				want = StartDate - 1
			case sel >= 1:
				want = EndShipDate
			}
			if got := d.ShipdateCutoff(sel); got != want {
				t.Errorf("%v order, sel %v: cutoff %d, sorted quantile %d", o, sel, got, want)
			}
		}
	}
}

func TestDateHelpers(t *testing.T) {
	if DaysSinceEpoch(1970, time.January, 1) != 0 {
		t.Error("epoch day not zero")
	}
	if DaysSinceEpoch(1970, time.January, 2) != 1 {
		t.Error("day arithmetic wrong")
	}
	if StartDate != DaysSinceEpoch(1992, time.January, 1) {
		t.Error("StartDate mismatch")
	}
	// MonthID monotone over a year boundary.
	dec := MonthID(DaysSinceEpoch(1992, time.December, 31))
	jan := MonthID(DaysSinceEpoch(1993, time.January, 1))
	if jan != dec+1 {
		t.Errorf("MonthID Dec92=%d Jan93=%d, want consecutive", dec, jan)
	}
	if Q6ShipdateLo() >= Q6ShipdateHi() {
		t.Error("Q6 shipdate bounds inverted")
	}
}

func TestQuantileInt32(t *testing.T) {
	c := columnar.NewInt32("x", []int32{5, 1, 9, 3, 7})
	if q := QuantileInt32(c, 0); q != 1 {
		t.Errorf("q0 = %d, want 1", q)
	}
	if q := QuantileInt32(c, 0.99); q != 9 {
		t.Errorf("q0.99 = %d, want 9", q)
	}
	if q := QuantileInt32(c, 0.5); q != 5 {
		t.Errorf("q0.5 = %d, want 5", q)
	}
	empty := columnar.NewInt32("e", nil)
	if q := QuantileInt32(empty, 0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
	// A value range wider than the column (the sort path, extremes included)
	// and a narrow one with duplicates (the counting path) agree with a
	// sorted copy at every position.
	for _, vals := range [][]int32{
		{math.MaxInt32, math.MinInt32, 0, 7, -7},
		{3, 1, 2, 1, 3, 3, 2, 1, 1, 2, 3, 1},
	} {
		sorted := append([]int32(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := 0; i <= 2*len(vals); i++ {
			q := float64(i) / float64(2*len(vals))
			if got, want := QuantileInt32(columnar.NewInt32("v", vals), q), QuantileSortedInt32(sorted, q); got != want {
				t.Errorf("%v q=%v: %d, sorted copy gives %d", vals, q, got, want)
			}
		}
	}
}
