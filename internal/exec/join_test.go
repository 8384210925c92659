package exec

import (
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

func joinDataset(t *testing.T) *tpch.Dataset {
	t.Helper()
	return tpch.MustGenerate(tpch.Config{Lineitems: 40000, Seed: 5})
}

func buildOrdersJoin(t *testing.T, e *Engine, d *tpch.Dataset, dateCut int32) *FKJoin {
	t.Helper()
	filter := &Predicate{Col: d.Orders.Column("o_orderdate"), Op: LE, I: int64(dateCut), Label: "o_orderdate<=cut"}
	j, err := NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, filter, "join-orders")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestFKJoinValidation(t *testing.T) {
	d := joinDataset(t)
	e := newEngine(t)
	if _, err := NewFKJoin(e.CPU(), nil, 10, nil, ""); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), 0, nil, ""); err == nil {
		t.Error("zero build rows accepted")
	}
	short := &Predicate{Col: columnar.NewInt64("s", []int64{1}), Op: LT, I: 5}
	if _, err := NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, short, ""); err == nil {
		t.Error("undersized filter column accepted")
	}
}

func TestFKJoinCorrectness(t *testing.T) {
	d := joinDataset(t)
	e := newEngine(t)
	cut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), 0.5)
	j := buildOrdersJoin(t, e, d, cut)
	q := &Query{Table: d.Lineitem, Ops: []Op{j}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: count lineitems whose order qualifies.
	keys := d.Lineitem.Column("l_orderkey").I64()
	dates := d.Orders.Column("o_orderdate").I32()
	var want int64
	for _, k := range keys {
		if dates[k] <= cut {
			want++
		}
	}
	if res.Qualifying != want {
		t.Errorf("join qualifying = %d, want %d", res.Qualifying, want)
	}
	sel := j.JoinSelectivity()
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("join selectivity %v, want ~0.5", sel)
	}
}

func TestFKJoinNilFilterPassesAll(t *testing.T) {
	d := joinDataset(t)
	e := newEngine(t)
	j, err := NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if j.JoinSelectivity() != 1 {
		t.Error("nil filter selectivity != 1")
	}
	q := &Query{Table: d.Lineitem, Ops: []Op{j}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying != int64(d.Lineitem.NumRows()) {
		t.Errorf("filterless FK join qualified %d of %d", res.Qualifying, d.Lineitem.NumRows())
	}
}

// TestCoClusteredJoinLocality is the heart of §5.6: probing orders (keys
// nearly sorted in lineitem) must cost far fewer L3 misses than probing part
// (keys uniformly random), for the same probe count.
func TestCoClusteredJoinLocality(t *testing.T) {
	d := joinDataset(t)

	run := func(key *columnar.Column, buildRows int, filterCol *columnar.Column) uint64 {
		e := newEngine(t)
		filter := &Predicate{Col: filterCol, Op: GE, I: 0, Label: "pass"}
		j, err := NewFKJoin(e.CPU(), key, buildRows, filter, "")
		if err != nil {
			t.Fatal(err)
		}
		q := &Query{Table: d.Lineitem, Ops: []Op{j}}
		if err := e.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.Get(pmu.L3Miss)
	}

	coMisses := run(d.Lineitem.Column("l_orderkey"), d.NumOrders, d.Orders.Column("o_orderdate"))
	// Random join: synthesize a random-key column over a build side as large
	// as orders so the only difference is locality.
	rng := datagen.NewRNG(17)
	randKeys := columnar.NewInt64("rand_key", datagen.UniformInt64(rng, d.Lineitem.NumRows(), 0, int64(d.NumOrders-1)))
	randMisses := run(randKeys, d.NumOrders, d.Orders.Column("o_orderdate"))

	if coMisses*3 >= randMisses {
		t.Errorf("co-clustered join L3 misses %d not ≪ random join %d", coMisses, randMisses)
	}
}

func TestFKJoinPanicsOnOutOfRangeKey(t *testing.T) {
	e := newEngine(t)
	keys := columnar.NewInt64("k", []int64{5})
	keys.Bind(0x100000)
	j, err := NewFKJoin(e.CPU(), keys, 3, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range key did not panic")
		}
	}()
	j.Eval(e.CPU(), 0)
}

func TestJoinAfterSelectionCheaperWhenSelective(t *testing.T) {
	// Pipeline order matters: a selective predicate before the join removes
	// probe work.
	d := joinDataset(t)
	cut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), 0.9)
	run := func(order []int) uint64 {
		e := newEngine(t)
		j := buildOrdersJoin(t, e, d, cut)
		sel := &Predicate{Col: d.Lineitem.Column("l_quantity"), Op: LE, I: 2, Label: "qty<=2"} // ~4%
		q := &Query{Table: d.Lineitem, Ops: []Op{sel, j}}
		qo, err := q.WithOrder(order)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BindQuery(qo); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(qo)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	selFirst := run([]int{0, 1})
	joinFirst := run([]int{1, 0})
	if selFirst >= joinFirst {
		t.Errorf("selection-first %d cycles not below join-first %d", selFirst, joinFirst)
	}
}

func TestInstrumentedRunMatchesPlainAndCostsMore(t *testing.T) {
	tb := testTable(t, 30000)
	plainPool := poolOfOne(t, 1024, false)
	q := buildQuery(t, tb, plainPool.Engines()[0], 40, 60)
	plain := wholeTable(t, plainPool, q, ImplBranching)
	instPool := poolOfOne(t, 1024, false)
	oc := OpCounts{Evaluated: make([]int64, len(q.Ops)), Passed: make([]int64, len(q.Ops))}
	instPool.Engines()[0].SetOpCounts(&oc)
	inst := wholeTable(t, instPool, q, ImplInstrumented)
	if inst.Qualifying != plain.Qualifying || inst.Sum != plain.Sum {
		t.Error("instrumented run changed results")
	}
	if inst.MaxCycles <= plain.MaxCycles {
		t.Errorf("instrumented %d cycles not above plain %d", inst.MaxCycles, plain.MaxCycles)
	}
	// Counter semantics: op0 evaluated for every tuple; op1 for op0's passes.
	if oc.Evaluated[0] != int64(tb.NumRows()) {
		t.Errorf("op0 evaluated %d, want %d", oc.Evaluated[0], tb.NumRows())
	}
	if oc.Evaluated[1] != oc.Passed[0] {
		t.Errorf("op1 evaluated %d, want op0 passes %d", oc.Evaluated[1], oc.Passed[0])
	}
	if oc.Passed[1] != inst.Qualifying {
		t.Errorf("op1 passes %d, want qualifying %d", oc.Passed[1], inst.Qualifying)
	}
	sels := oc.Selectivities()
	if sels[0] < 0.35 || sels[0] > 0.45 {
		t.Errorf("derived selectivity %v, want ~0.4", sels[0])
	}
}

func TestRunVectorInstrumentedValidation(t *testing.T) {
	tb := testTable(t, 100)
	e := newEngine(t)
	q := buildQuery(t, tb, e, 50, 50)
	bad := &OpCounts{Evaluated: make([]int64, 1), Passed: make([]int64, 1)}
	if _, err := e.RunVectorInstrumented(q, 0, 50, bad); err == nil {
		t.Error("mis-sized OpCounts accepted")
	}
	if _, err := e.RunVectorInstrumented(q, 0, 50, nil); err == nil {
		t.Error("nil OpCounts accepted")
	}
}

func TestQ6Builders(t *testing.T) {
	d := joinDataset(t)
	q5, err := Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(q5.Ops) != 5 {
		t.Errorf("Q6 has %d predicates, want 5", len(q5.Ops))
	}
	q4, err := Q6Shipdate(d, d.ShipdateCutoff(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(q4.Ops) != 4 {
		t.Errorf("Q6Shipdate has %d predicates, want 4", len(q4.Ops))
	}

	// Execute Q6 and verify against direct evaluation.
	e := newEngine(t)
	if err := e.BindQuery(q5); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(q5)
	if err != nil {
		t.Fatal(err)
	}
	li := d.Lineitem
	ship := li.Column("l_shipdate").I32()
	disc := li.Column("l_discount").F64()
	qty := li.Column("l_quantity").I64()
	price := li.Column("l_extendedprice").F64()
	lo, hi := tpch.Q6ShipdateLo(), tpch.Q6ShipdateHi()
	var want int64
	var wantSum float64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi &&
			disc[i] >= tpch.Q6DiscountLo-1e-9 && disc[i] <= tpch.Q6DiscountHi+1e-9 &&
			qty[i] < tpch.Q6QuantityBound {
			want++
			wantSum += price[i] * disc[i]
		}
	}
	if res.Qualifying != want {
		t.Errorf("Q6 qualifying = %d, want %d", res.Qualifying, want)
	}
	if diff := res.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("Q6 sum = %v, want %v", res.Sum, wantSum)
	}
	if want == 0 {
		t.Error("degenerate test: Q6 selected nothing")
	}
}
