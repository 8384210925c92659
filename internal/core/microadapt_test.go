package core

import (
	"math"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/tpch"
)

func TestChooseImpl(t *testing.T) {
	// Very selective first predicate over a deeper PEO: branching
	// short-circuits away most work and mispredicts little.
	if got := ChooseImpl([]float64{0.01, 0.5, 0.5, 0.5}); got != exec.ImplBranching {
		t.Errorf("sel 1%% first of four: chose %v, want branching", got)
	}
	// Mid selectivity: mispredictions dominate; branch-free wins.
	if got := ChooseImpl([]float64{0.5, 0.5}); got != exec.ImplBranchFree {
		t.Errorf("sel 50%%: chose %v, want branch-free", got)
	}
	// Empty and clamping.
	if got := ChooseImpl(nil); got != exec.ImplBranching {
		t.Error("empty sels must default to branching")
	}
	if got := ChooseImpl([]float64{-1, 0.5, 0.5, 2}); got != exec.ImplBranching {
		t.Errorf("clamped first-sel-0 chose %v, want branching", got)
	}
}

// TestChooseImplAgainstMeasurement cross-checks the analytic decision rule
// against the simulated engine: over a selectivity sweep, whenever the model
// prefers an implementation by a clear margin, the measured cycles agree.
func TestChooseImplAgainstMeasurement(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 40000, Seed: 8})
	qty := d.Lineitem.Column("l_quantity") // uniform 1..50
	for _, bound := range []int64{2, 25, 49} {
		sel := float64(bound) / 50
		q := &exec.Query{
			Table: d.Lineitem,
			Ops: []exec.Op{
				&exec.Predicate{Col: qty, Op: exec.LE, I: bound},
				&exec.Predicate{Col: d.Lineitem.Column("l_partkey"), Op: exec.GE, I: 0},
			},
		}
		run := func(impl exec.ScanImpl) uint64 {
			e := progEngine(t)
			if err := e.BindQuery(q); err != nil {
				t.Fatal(err)
			}
			n := q.Table.NumRows()
			c0 := e.CPU().Cycles()
			for lo := 0; lo < n; lo += e.VectorSize() {
				hi := lo + e.VectorSize()
				if hi > n {
					hi = n
				}
				if _, err := e.RunVectorImpl(q, lo, hi, impl); err != nil {
					t.Fatal(err)
				}
			}
			return e.CPU().Cycles() - c0
		}
		branching := run(exec.ImplBranching)
		free := run(exec.ImplBranchFree)
		chosen := ChooseImpl([]float64{sel, 1})
		measuredBest := exec.ImplBranching
		if free < branching {
			measuredBest = exec.ImplBranchFree
		}
		// Only insist on agreement when the measured margin is clear (>10%).
		margin := math.Abs(float64(branching)-float64(free)) / float64(branching)
		if margin > 0.10 && chosen != measuredBest {
			t.Errorf("sel %.2f: model chose %v, measurement prefers %v (branching %d, free %d)",
				sel, chosen, measuredBest, branching, free)
		}
	}
}

func TestRunMicroAdaptiveCorrectnessAndSwitching(t *testing.T) {
	// All predicates near 50%: branch-free should be selected after the
	// first estimation.
	d := progDataset(t, 60000).ReorderLineitem(tpch.OrderingRandom, 31)
	qty := d.Lineitem.Column("l_quantity")
	disc := d.Lineitem.Column("l_discount")
	q := &exec.Query{
		Table: d.Lineitem,
		Ops: []exec.Op{
			&exec.Predicate{Col: qty, Op: exec.LE, I: 25, Label: "qty<=25"},
			&exec.Predicate{Col: disc, Op: exec.LE, F: 0.05, Label: "disc<=.05"},
		},
	}
	eBase := progEngine(t)
	if err := eBase.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	base, err := eBase.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	eMA := progEngine(t)
	if err := eMA.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	res, st, err := RunAdaptive(poolOfOne(t, eMA), q, Options{ReopInterval: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying != base.Qualifying {
		t.Errorf("micro-adaptive changed results: %d vs %d", res.Qualifying, base.Qualifying)
	}
	if st.BranchFreeVectors == 0 {
		t.Error("mid-selectivity predicates never switched to branch-free")
	}
	if st.BranchingVectors == 0 {
		t.Error("sampling windows require some branching vectors")
	}
	if st.ImplSwitches == 0 {
		t.Error("no implementation switches recorded")
	}
	// Micro-adaptivity should pay off against pure branching here.
	if float64(res.Cycles) > float64(base.Cycles)*1.02 {
		t.Errorf("micro-adaptive %d cycles vs branching baseline %d", res.Cycles, base.Cycles)
	}
}

func TestRunMicroAdaptiveIneligibleStaysBranching(t *testing.T) {
	d := progDataset(t, 20000)
	e := progEngine(t)
	filter := &exec.Predicate{Col: d.Orders.Column("o_orderdate"), Op: exec.GE, I: 0}
	j, err := exec.NewFKJoin(e.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, filter, "")
	if err != nil {
		t.Fatal(err)
	}
	q := &exec.Query{Table: d.Lineitem, Ops: []exec.Op{
		&exec.Predicate{Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 25},
		j,
	}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	_, st, err := RunAdaptive(poolOfOne(t, e), q, Options{ReopInterval: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.BranchFreeVectors != 0 {
		t.Error("join query ran branch-free vectors")
	}
}

func TestRunProgressiveEnumeratedMatchesAndCosts(t *testing.T) {
	d := progDataset(t, 60000).ReorderLineitem(tpch.OrderingRandom, 41)
	q, wsels := worstOrderQ6(t, d)
	_ = wsels

	ePMU := progEngine(t)
	if err := ePMU.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	pmuRes, pmuSt, err := RunAdaptive(poolOfOne(t, ePMU), q, Options{ReopInterval: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	eEnum := progEngine(t)
	if err := eEnum.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	enumRes, enumSt, err := RunProgressiveEnumerated(eEnum, q, Options{ReopInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if enumRes.Qualifying != pmuRes.Qualifying {
		t.Errorf("results diverge: %d vs %d", enumRes.Qualifying, pmuRes.Qualifying)
	}
	if enumSt.Optimizations == 0 || pmuSt.Optimizations == 0 {
		t.Fatal("optimizers idle")
	}
	// Both repair the bad order; the enumerated variant's decisions are
	// exact, so its final order must be ascending in true selectivity.
	if enumSt.Reorders == 0 {
		t.Error("enumerated optimizer never reordered the worst PEO")
	}
}
