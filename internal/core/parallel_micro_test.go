package core

import (
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// microQuery builds a two-predicate mid-selectivity scan (where branch-free
// execution should win) over a fresh engine/data set pair.
func microQuery(t *testing.T) (*exec.Query, *exec.Engine) {
	t.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: 60000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	q := &exec.Query{
		Table: d.Lineitem,
		Ops: []exec.Op{
			&exec.Predicate{Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 25},
			&exec.Predicate{Col: d.Lineitem.Column("l_discount"), Op: exec.LE, F: 0.05},
		},
	}
	e := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return q, e
}

// TestRunParallelMicroAdaptive checks the block-granular micro-adaptive
// driver: results identical to the serial driver, branch-free blocks chosen
// from the merged counters, deterministic repetition, and a makespan below
// the serial run.
func TestRunParallelMicroAdaptive(t *testing.T) {
	q, e := microQuery(t)
	serial, _, err := runAdaptive(poolOfOne(t, e), q, Options{ReopInterval: 2}, true)
	if err != nil {
		t.Fatal(err)
	}

	runPar := func(workers int) (exec.Result, Stats) {
		qp, _ := microQuery(t)
		p, err := exec.NewParallel(cpu.ScaledXeon(), workers, 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := runAdaptive(p, qp, Options{ReopInterval: 2}, true)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}

	res4, st4 := runPar(4)
	if res4.Qualifying != serial.Qualifying || res4.Sum != serial.Sum {
		t.Errorf("parallel result %d/%v, serial %d/%v",
			res4.Qualifying, res4.Sum, serial.Qualifying, serial.Sum)
	}
	if st4.BranchFreeVectors == 0 {
		t.Error("merged counters never selected the branch-free scan")
	}
	if st4.Optimizations == 0 {
		t.Error("no optimizations ran")
	}
	if st4.Workers != 4 {
		t.Errorf("Workers = %d", st4.Workers)
	}
	if res4.Vectors != serial.Vectors {
		t.Errorf("vector counts diverge: %d vs %d", res4.Vectors, serial.Vectors)
	}
	if res4.Cycles >= serial.Cycles {
		t.Errorf("4-core makespan %d not below serial %d", res4.Cycles, serial.Cycles)
	}

	resAgain, stAgain := runPar(4)
	if resAgain.Cycles != res4.Cycles || resAgain.Counters != res4.Counters {
		t.Error("parallel micro-adaptive run not deterministic")
	}
	if stAgain.BranchFreeVectors != st4.BranchFreeVectors || stAgain.ImplSwitches != st4.ImplSwitches {
		t.Errorf("impl decisions not deterministic: %+v vs %+v", stAgain, st4)
	}
}

// TestRunParallelMicroAdaptiveJoinIneligible: queries with non-predicate
// operators must run fully branching.
func TestRunParallelMicroAdaptiveJoinIneligible(t *testing.T) {
	d, err := tpch.Generate(tpch.Config{Lineitems: 20000, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.ScaledXeon())
	filter := &exec.Predicate{Col: d.Orders.Column("o_orderdate"), Op: exec.LE, I: int64(tpch.QuantileInt32(d.Orders.Column("o_orderdate"), 0.5))}
	j, err := exec.NewFKJoin(c, d.Lineitem.Column("l_orderkey"), d.NumOrders, filter, "join-orders")
	if err != nil {
		t.Fatal(err)
	}
	q := &exec.Query{
		Table: d.Lineitem,
		Ops: []exec.Op{
			&exec.Predicate{Col: d.Lineitem.Column("l_quantity"), Op: exec.LE, I: 25},
			j,
		},
	}
	if err := exec.MustEngine(c, 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewParallel(cpu.ScaledXeon(), 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := runAdaptive(p, q, Options{ReopInterval: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.BranchFreeVectors != 0 || st.ImplSwitches != 0 {
		t.Errorf("join query ran branch-free: %+v", st)
	}
}
