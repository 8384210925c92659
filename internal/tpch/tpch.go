// Package tpch generates TPC-H-shaped data sets from scratch: lineitem,
// orders, and part tables with dbgen's value domains and the structural
// properties the paper's experiments exploit — lineitem is bulk-loaded in
// orderkey order and therefore weakly clustered on shipdate (§1), lineitem
// and orders are co-clustered through l_orderkey (§5.6), and l_partkey is
// uniformly random so part accesses have no locality.
//
// The generator targets row counts rather than TPC-H scale factors: the
// simulated hardware profile scales caches down by the same factor as the
// data (see DESIGN.md), so ratios match the paper's SF-100 setup.
package tpch

import (
	"fmt"
	"math"
	"slices"
	"time"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
)

// Date domain constants (dbgen: orders span 1992-01-01 .. 1998-08-02,
// shipdate = orderdate + up to 121 days).
var (
	// StartDate is the first order date, 1992-01-01, as days since epoch.
	StartDate = DaysSinceEpoch(1992, time.January, 1)
	// EndOrderDate is the last order date, 1998-08-02.
	EndOrderDate = DaysSinceEpoch(1998, time.August, 2)
	// EndShipDate is the last possible ship date.
	EndShipDate = EndOrderDate + 121
)

// Q6 constants from the benchmark query text.
const (
	// Q6QuantityBound is Q6's "l_quantity < 24".
	Q6QuantityBound = 24
	// Q6DiscountLo is "l_discount >= 0.06 - 0.01".
	Q6DiscountLo = 0.05
	// Q6DiscountHi is "l_discount <= 0.06 + 0.01".
	Q6DiscountHi = 0.07
	// Q6ShipdateLo is "l_shipdate >= 1994-01-01" in the original query.
	q6ShipYear = 1994
)

// Q6ShipdateLo returns the original query's lower shipdate bound.
func Q6ShipdateLo() int32 { return DaysSinceEpoch(q6ShipYear, time.January, 1) }

// Q6ShipdateHi returns the original query's exclusive upper shipdate bound
// (one year after the lower bound).
func Q6ShipdateHi() int32 { return DaysSinceEpoch(q6ShipYear+1, time.January, 1) }

// DaysSinceEpoch converts a calendar date to days since 1970-01-01.
func DaysSinceEpoch(year int, month time.Month, day int) int32 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return int32(t.Unix() / 86400)
}

// MonthID returns a monotone month index (year*12+month) for a day count,
// used to build the paper's "clustered" data set (shuffle within a month).
func MonthID(days int32) int32 {
	t := time.Unix(int64(days)*86400, 0).UTC()
	return int32(t.Year())*12 + int32(t.Month()) - 1
}

// Config controls generation.
type Config struct {
	// Lineitems is the lineitem row count (orders ≈ Lineitems/4, parts ≈
	// Lineitems/30, the dbgen ratios).
	Lineitems int
	// Seed makes generation deterministic.
	Seed int64
}

// Dataset bundles the generated tables: the lineitem fact table plus the
// orders, part, customer, and nation dimensions reachable through declared
// foreign keys (lineitem→orders, lineitem→part, orders→customer,
// customer→nation).
type Dataset struct {
	Lineitem *columnar.Table
	Orders   *columnar.Table
	Part     *columnar.Table
	Customer *columnar.Table
	Nation   *columnar.Table
	// NumOrders, NumParts, NumCustomers, and NumNations are the build-side
	// row counts.
	NumOrders    int
	NumParts     int
	NumCustomers int
	NumNations   int
}

// NumNationRows is the fixed nation-table cardinality (dbgen's 25 nations).
const NumNationRows = 25

// Tables returns every table of the data set keyed by name.
func (d *Dataset) Tables() map[string]*columnar.Table {
	return map[string]*columnar.Table{
		"lineitem": d.Lineitem,
		"orders":   d.Orders,
		"part":     d.Part,
		"customer": d.Customer,
		"nation":   d.Nation,
	}
}

// Table returns the named table, nil when unknown.
func (d *Dataset) Table(name string) *columnar.Table { return d.Tables()[name] }

// TableRows returns the named table's cardinality, 0 when unknown.
func (d *Dataset) TableRows(name string) int {
	switch name {
	case "lineitem":
		return d.Lineitem.NumRows()
	case "orders":
		return d.NumOrders
	case "part":
		return d.NumParts
	case "customer":
		return d.NumCustomers
	case "nation":
		return d.NumNations
	}
	return 0
}

// Generate builds a data set in natural (bulk-load) order: lineitem rows are
// emitted grouped by ascending orderkey with order dates increasing over the
// table, so shipdate is weakly clustered — the situation the paper's
// introduction motivates.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Lineitems <= 0 {
		return nil, fmt.Errorf("tpch: non-positive lineitem count %d", cfg.Lineitems)
	}
	rng := datagen.NewRNG(cfg.Seed)
	n := cfg.Lineitems
	numOrders := n/4 + 1
	numParts := n/30 + 1

	// Orders: orderkey i (0-based), orderdate increasing with jitter
	// (bulk-loaded), totalprice uniform.
	oDate := make([]int32, numOrders)
	span := int64(EndOrderDate - StartDate)
	for i := range oDate {
		base := StartDate + int32(int64(i)*span/int64(numOrders))
		jitter := int32(rng.Intn(15)) - 7
		d := base + jitter
		if d < StartDate {
			d = StartDate
		}
		if d > EndOrderDate {
			d = EndOrderDate
		}
		oDate[i] = d
	}
	oKey := datagen.Ascending(numOrders)
	oTotal := datagen.UniformFloat64(rng, numOrders, 1000, 500000)

	orders := columnar.NewTable("orders")
	orders.MustAddColumn(columnar.NewInt64("o_orderkey", oKey))
	orders.MustAddColumn(columnar.NewDate("o_orderdate", oDate))
	orders.MustAddColumn(columnar.NewFloat64("o_totalprice", oTotal))

	// Part: partkey ascending, size and retailprice uniform.
	part := columnar.NewTable("part")
	part.MustAddColumn(columnar.NewInt64("p_partkey", datagen.Ascending(numParts)))
	part.MustAddColumn(columnar.NewInt32("p_size", datagen.UniformInt32(rng, numParts, 1, 50)))
	part.MustAddColumn(columnar.NewFloat64("p_retailprice", datagen.UniformFloat64(rng, numParts, 900, 2100)))

	// Lineitem: 1..7 rows per order until n rows are emitted.
	lOrderkey := make([]int64, 0, n)
	lPartkey := make([]int64, 0, n)
	lQuantity := make([]int64, 0, n)
	lPrice := make([]float64, 0, n)
	lDiscount := make([]float64, 0, n)
	lTax := make([]float64, 0, n)
	lShipdate := make([]int32, 0, n)
	order := 0
	for len(lOrderkey) < n {
		per := 1 + rng.Intn(7)
		if order >= numOrders {
			order = numOrders - 1
		}
		for k := 0; k < per && len(lOrderkey) < n; k++ {
			lOrderkey = append(lOrderkey, int64(order))
			lPartkey = append(lPartkey, rng.Int63n(int64(numParts)))
			q := 1 + rng.Int63n(50)
			lQuantity = append(lQuantity, q)
			lPrice = append(lPrice, float64(q)*(900+float64(rng.Float64()*1200)))
			lDiscount = append(lDiscount, float64(rng.Intn(11))/100)
			lTax = append(lTax, float64(rng.Intn(9))/100)
			ship := oDate[order] + 1 + int32(rng.Intn(121))
			lShipdate = append(lShipdate, ship)
		}
		order++
	}

	lineitem := columnar.NewTable("lineitem")
	lineitem.MustAddColumn(columnar.NewInt64("l_orderkey", lOrderkey))
	lineitem.MustAddColumn(columnar.NewInt64("l_partkey", lPartkey))
	lineitem.MustAddColumn(columnar.NewInt64("l_quantity", lQuantity))
	lineitem.MustAddColumn(columnar.NewFloat64("l_extendedprice", lPrice))
	lineitem.MustAddColumn(columnar.NewFloat64("l_discount", lDiscount))
	lineitem.MustAddColumn(columnar.NewFloat64("l_tax", lTax))
	lineitem.MustAddColumn(columnar.NewDate("l_shipdate", lShipdate))

	// Customer and nation dimensions plus the orders→customer foreign key.
	// Generated from a separate RNG stream, after everything above, so the
	// lineitem/orders/part values of earlier generator versions reproduce
	// bit for bit for any given seed.
	rng2 := datagen.NewRNG(cfg.Seed ^ 0x5ca1ab1e)
	numCustomers := numOrders/10 + 1
	orders.MustAddColumn(columnar.NewInt64("o_custkey", datagen.UniformInt64(rng2, numOrders, 0, int64(numCustomers)-1)))

	customer := columnar.NewTable("customer")
	customer.MustAddColumn(columnar.NewInt64("c_custkey", datagen.Ascending(numCustomers)))
	customer.MustAddColumn(columnar.NewFloat64("c_acctbal", datagen.UniformFloat64(rng2, numCustomers, -999, 9999)))
	customer.MustAddColumn(columnar.NewInt32("c_mktsegment", datagen.UniformInt32(rng2, numCustomers, 0, 4)))
	customer.MustAddColumn(columnar.NewInt64("c_nationkey", datagen.UniformInt64(rng2, numCustomers, 0, NumNationRows-1)))

	nation := columnar.NewTable("nation")
	nation.MustAddColumn(columnar.NewInt64("n_nationkey", datagen.Ascending(NumNationRows)))
	nation.MustAddColumn(columnar.NewInt32("n_regionkey", datagen.UniformInt32(rng2, NumNationRows, 0, 4)))

	return &Dataset{
		Lineitem:     lineitem,
		Orders:       orders,
		Part:         part,
		Customer:     customer,
		Nation:       nation,
		NumOrders:    numOrders,
		NumParts:     numParts,
		NumCustomers: numCustomers,
		NumNations:   NumNationRows,
	}, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg Config) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Ordering selects how lineitem rows are physically ordered, the axis of the
// paper's Figure 13.
type Ordering int

// Lineitem orderings.
const (
	// OrderingNatural keeps the bulk-load order (weakly clustered shipdate,
	// co-clustered with orders).
	OrderingNatural Ordering = iota
	// OrderingShipdateSorted sorts rows ascending by l_shipdate (Fig 13a).
	OrderingShipdateSorted
	// OrderingClusteredMonth shuffles rows within their shipdate month,
	// keeping months in order (Fig 13b).
	OrderingClusteredMonth
	// OrderingRandom fully shuffles rows (Fig 13c).
	OrderingRandom
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderingNatural:
		return "natural"
	case OrderingShipdateSorted:
		return "sorted"
	case OrderingClusteredMonth:
		return "clustered"
	case OrderingRandom:
		return "random"
	}
	return fmt.Sprintf("ordering(%d)", int(o))
}

// ReorderLineitem returns a copy of the data set with lineitem rows
// physically reordered. Orders and part tables are shared (their order never
// changes in the paper's experiments).
func (d *Dataset) ReorderLineitem(o Ordering, seed int64) *Dataset {
	return d.withLineitem(permuteTable(d.Lineitem, d.lineitemPerm(o, seed)))
}

// lineitemPerm is the row permutation behind ReorderLineitem: row i of the
// reordered table is row perm[i] of the current one.
func (d *Dataset) lineitemPerm(o Ordering, seed int64) []int {
	rng := datagen.NewRNG(seed)
	ship := d.Lineitem.Column("l_shipdate").I32()
	switch o {
	case OrderingNatural:
		return identityPerm(len(ship))
	case OrderingShipdateSorted:
		return stableOrder(ship)
	case OrderingClusteredMonth:
		// Sort by shipdate first, then shuffle within months. Sorted rows
		// come in runs of one day, so each run converts its day once.
		sorted := stableOrder(ship)
		months := make([]int32, len(sorted))
		day, month := int32(0), int32(0)
		for i, p := range sorted {
			if i == 0 || ship[p] != day {
				day, month = ship[p], MonthID(ship[p])
			}
			months[i] = month
		}
		within := datagen.GroupPermutation(rng, months)
		perm := make([]int, len(sorted))
		for i := range perm {
			perm[i] = sorted[within[i]]
		}
		return perm
	case OrderingRandom:
		return rng.Perm(len(ship))
	}
	// Unreachable: every caller passes an ordering it has already validated.
	panic(fmt.Sprintf("tpch: unknown ordering %d", int(o)))
}

// stableOrder returns the permutation that sorts keys ascending, equal keys
// in row order. A stable sort on one key has exactly one output, so this is
// the permutation any stable sort gives; it is computed by counting. Keys
// spanning no more values than there are rows (shipdates: about 2 500 days)
// take one counting pass over key−min; wider spans take two over the low and
// high 16 bits of key−min, least significant first.
func stableOrder(keys []int32) []int {
	if len(keys) == 0 {
		return []int{}
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	// Two's-complement wrap-around makes key−lo exact as a uint32.
	span := uint32(hi - lo)
	if uint64(span) < uint64(len(keys)) {
		return countingPass(keys, nil, lo, span, 0, math.MaxUint32)
	}
	low := countingPass(keys, nil, lo, span, 0, 0xffff)
	return countingPass(keys, low, lo, span, 16, 0xffff)
}

// countingPass stably orders rows by the digit (key−lo)>>shift & mask: the
// rows listed in perm, or every row in order when perm is nil. Keys lie in
// [lo, lo+span].
func countingPass(keys []int32, perm []int, lo int32, span uint32, shift uint, mask uint32) []int {
	start := make([]int, min(mask, span>>shift)+2)
	for _, k := range keys {
		start[uint32(k-lo)>>shift&mask+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	out := make([]int, len(keys))
	for i := range out {
		p := i
		if perm != nil {
			p = perm[i]
		}
		d := uint32(keys[p]-lo) >> shift & mask
		out[start[d]] = p
		start[d]++
	}
	return out
}

// ShuffleLineitemWindow returns a copy with lineitem rows permuted by a
// windowed Knuth shuffle over the current row order. Applied to a
// natural-order data set this degrades lineitem/orders co-clustering
// progressively: window 1 keeps it intact, window >= n destroys it — the
// §5.5 sortedness axis for join locality; applied to a shipdate-sorted one
// it sweeps the sortedness spectrum of the paper's Figure 14.
func (d *Dataset) ShuffleLineitemWindow(window int, seed int64) *Dataset {
	rng := datagen.NewRNG(seed)
	n := d.Lineitem.NumRows()
	perm := datagen.WindowPermutation(rng, n, window)
	return d.withLineitem(permuteTable(d.Lineitem, perm))
}

// withLineitem returns a copy of the data set with the lineitem table
// replaced; every dimension table is shared (their order never changes in
// the paper's experiments).
func (d *Dataset) withLineitem(l *columnar.Table) *Dataset {
	cp := *d
	cp.Lineitem = l
	return &cp
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func permuteTable(t *columnar.Table, perm []int) *columnar.Table {
	out := columnar.NewTable(t.Name())
	for _, c := range t.Columns() {
		switch c.Kind() {
		case columnar.Int64:
			out.MustAddColumn(columnar.NewInt64(c.Name(), datagen.ApplyPermInt64(c.I64(), perm)))
		case columnar.Int32:
			out.MustAddColumn(columnar.NewInt32(c.Name(), datagen.ApplyPermInt32(c.I32(), perm)))
		case columnar.Date:
			out.MustAddColumn(columnar.NewDate(c.Name(), datagen.ApplyPermInt32(c.I32(), perm)))
		case columnar.Float64:
			out.MustAddColumn(columnar.NewFloat64(c.Name(), datagen.ApplyPermFloat64(c.F64(), perm)))
		}
	}
	return out
}

// QuantileInt32 returns the q-quantile (0..1) of the column's values; used to
// pick shipdate cutoffs that hit a target selectivity exactly on the
// generated data. It is the value QuantileSortedInt32 returns on a sorted
// copy of the column. Date-like columns (a few thousand distinct days over
// millions of rows) are counted in one pass over [min, max] instead of being
// copied and sorted; the sort remains for columns whose value range exceeds
// their length.
func QuantileInt32(c *columnar.Column, q float64) int32 {
	vals := c.I32()
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	if span := int64(hi) - int64(lo); span < int64(len(vals)) {
		counts := make([]int, span+1)
		for _, v := range vals {
			counts[v-lo]++
		}
		idx := quantileIndex(len(vals), q)
		for i, n := range counts {
			if idx < n {
				return lo + int32(i)
			}
			idx -= n
		}
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return QuantileSortedInt32(sorted, q)
}

// QuantileSortedInt32 is QuantileInt32 over values already sorted ascending;
// callers that probe many quantiles of one column can sort once and reuse it.
func QuantileSortedInt32(vals []int32, q float64) int32 {
	if len(vals) == 0 {
		return 0
	}
	return vals[quantileIndex(len(vals), q)]
}

// quantileIndex is the position of the q-quantile among n sorted values.
func quantileIndex(n int, q float64) int {
	idx := int(q * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// ShipdateCutoff returns a "l_shipdate <= cutoff" bound whose selectivity on
// this data set is approximately sel in [0,1]. sel smaller than 1/n yields a
// cutoff before the first ship date (selectivity 0 on most draws).
func (d *Dataset) ShipdateCutoff(sel float64) int32 {
	if sel <= 0 {
		return StartDate - 1
	}
	if sel >= 1 {
		return EndShipDate
	}
	return QuantileInt32(d.Lineitem.Column("l_shipdate"), sel)
}
