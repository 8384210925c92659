package exec

import (
	"math"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

func TestBranchFreeMatchesBranchingResults(t *testing.T) {
	tb := testTable(t, 30000)
	eA := newEngine(t)
	q := buildQuery(t, tb, eA, 35, 65)
	branching, err := eA.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	eB := newEngine(t)
	free, err := eB.RunBranchFree(q)
	if err != nil {
		t.Fatal(err)
	}
	if free.Qualifying != branching.Qualifying {
		t.Errorf("qualifying %d vs %d", free.Qualifying, branching.Qualifying)
	}
	if math.Abs(free.Sum-branching.Sum) > 1e-9 {
		t.Errorf("sum %v vs %v", free.Sum, branching.Sum)
	}
}

func TestBranchFreeHasNoPredicateMispredictions(t *testing.T) {
	tb := testTable(t, 30000)
	e := newEngine(t)
	q := buildQuery(t, tb, e, 50, 50) // worst case for the predictor
	res, err := e.RunBranchFree(q)
	if err != nil {
		t.Fatal(err)
	}
	// Only the always-taken loop branch exists; after warm-up it never
	// mispredicts.
	if mp := res.Counters.Get(pmu.BrMP); mp > 2 {
		t.Errorf("branch-free scan suffered %d mispredictions", mp)
	}
	if cond := res.Counters.Get(pmu.BrCond); cond != uint64(tb.NumRows()) {
		t.Errorf("conditional branches %d, want one loop branch per tuple (%d)", cond, tb.NumRows())
	}
}

// TestBranchFreeCrossover: branch-free wins at 50% selectivity (maximum
// misprediction cost for branching); with a very selective first predicate
// over a deeper PEO, branching's short-circuiting wins — the Ross [19]
// trade-off. (With only two cheap predicates branching does NOT win even at
// low selectivity: the conditional read's random misses cost more than the
// saved evaluation, the §3.1 double-counting effect.)
func TestBranchFreeCrossover(t *testing.T) {
	const n = 60000
	rng := datagen.NewRNG(77)
	tb := columnar.NewTable("bf")
	for _, name := range []string{"a", "b", "c", "d"} {
		tb.MustAddColumn(columnar.NewInt64(name, datagen.UniformInt64(rng, n, 0, 99)))
	}
	cost := func(firstBound int64, branchFree bool) uint64 {
		e := newEngine(t)
		q := &Query{
			Table: tb,
			Ops: []Op{
				&Predicate{Col: tb.Column("a"), Op: LT, I: firstBound},
				&Predicate{Col: tb.Column("b"), Op: LT, I: 50},
				&Predicate{Col: tb.Column("c"), Op: LT, I: 50},
				&Predicate{Col: tb.Column("d"), Op: LT, I: 50},
			},
		}
		if err := e.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		var res Result
		var err error
		if branchFree {
			res, err = e.RunBranchFree(q)
		} else {
			res, err = e.Run(q)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// Mid selectivity everywhere: branch-free must win.
	if bf, br := cost(50, true), cost(50, false); bf >= br {
		t.Errorf("sel 50%%: branch-free %d cycles not below branching %d", bf, br)
	}
	// Highly selective first predicate over four columns: branching must win.
	if bf, br := cost(2, true), cost(2, false); br >= bf {
		t.Errorf("sel 2%% of four: branching %d cycles not below branch-free %d", br, bf)
	}
}

func TestBranchFreeRejectsJoins(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 1000, Seed: 1})
	e := newEngine(t)
	j, err := NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Table: d.Lineitem, Ops: []Op{j}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	if BranchFreeEligible(q) {
		t.Error("join marked branch-free eligible")
	}
	if _, err := e.RunVectorBranchFree(q, 0, 100); err == nil {
		t.Error("branch-free scan accepted a join")
	}
}

func TestRunVectorImplDispatch(t *testing.T) {
	tb := testTable(t, 2000)
	e := newEngine(t)
	q := buildQuery(t, tb, e, 50, 50)
	a, err := e.RunVectorImpl(q, 0, 1000, ImplBranching)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunVectorImpl(q, 0, 1000, ImplBranchFree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunVectorImpl(q, 0, 1000, ImplInstrumented); err == nil {
		t.Error("instrumented vector ran without attached counters")
	}
	oc := &OpCounts{Evaluated: make([]int64, 2), Passed: make([]int64, 2)}
	e.SetOpCounts(oc)
	c, err := e.RunVectorImpl(q, 0, 1000, ImplInstrumented)
	if err != nil {
		t.Fatal(err)
	}
	if a.Qualifying != b.Qualifying || a.Qualifying != c.Qualifying {
		t.Error("implementations disagree")
	}
	if oc.Evaluated[0] != 1000 || oc.Passed[1] != c.Qualifying {
		t.Errorf("attached counters %+v for 1000 rows, %d qualifying", *oc, c.Qualifying)
	}
	if _, err := e.RunVectorImpl(q, 0, 10, ScanImpl(9)); err == nil {
		t.Error("unknown implementation accepted")
	}
	if ImplBranching.String() != "branching" || ImplBranchFree.String() != "branch-free" || ImplInstrumented.String() != "instrumented" {
		t.Error("impl names wrong")
	}
}

func TestGroupByCorrectness(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 20000, Seed: 2})
	e := newEngine(t)
	qty := d.Lineitem.Column("l_quantity")
	disc := d.Lineitem.Column("l_discount")
	q := &Query{
		Table: d.Lineitem,
		Ops:   []Op{&Predicate{Col: qty, Op: LT, I: 25}},
	}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	gb, err := NewGroupBy(e.CPU(), qty, disc, KeyDomain{Groups: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := poolOfOne(t, e.VectorSize(), false).NewBlockRun().runGroupBy(q, []*GroupBy{gb})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth.
	want := map[int64]*Group{}
	for i := 0; i < d.Lineitem.NumRows(); i++ {
		k := qty.Int64At(i)
		if k >= 25 {
			continue
		}
		g, ok := want[k]
		if !ok {
			g = &Group{Key: k}
			want[k] = g
		}
		g.Sum += disc.Float64At(i)
		g.Count++
	}
	if len(res.Groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(res.Groups), len(want))
	}
	prev := int64(-1 << 62)
	for _, g := range res.Groups {
		if g.Key <= prev {
			t.Fatal("groups not sorted by key")
		}
		prev = g.Key
		w := want[g.Key]
		if w == nil || g.Count != w.Count || math.Abs(g.Sum-w.Sum) > 1e-9 {
			t.Fatalf("group %d: got (%v, %d), want (%v, %d)", g.Key, g.Sum, g.Count, w.Sum, w.Count)
		}
	}
	if res.Cycles == 0 {
		t.Error("no cycle accounting")
	}
}

func TestGroupByValidation(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 100, Seed: 2})
	e := newEngine(t)
	qty := d.Lineitem.Column("l_quantity")
	disc := d.Lineitem.Column("l_discount")
	if _, err := NewGroupBy(e.CPU(), nil, disc, KeyDomain{Groups: 10}); err == nil {
		t.Error("nil group column accepted")
	}
	if _, err := NewGroupBy(e.CPU(), disc, disc, KeyDomain{Groups: 10}); err == nil {
		t.Error("float group column accepted")
	}
	if _, err := NewGroupBy(e.CPU(), qty, disc, KeyDomain{}); err == nil {
		t.Error("zero expected groups accepted")
	}
	q := &Query{Table: d.Lineitem, Ops: []Op{&Predicate{Col: qty, Op: LT, I: 25}}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	if _, err := poolOfOne(t, e.VectorSize(), false).NewBlockRun().runGroupBy(q, []*GroupBy{nil}); err == nil {
		t.Error("nil GroupBy accepted")
	}
}
