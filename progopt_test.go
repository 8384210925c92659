package progopt

import (
	"math"
	"testing"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{VectorSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewDefaults(t *testing.T) {
	if _, err := New(Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, a := range []Arch{ArchNehalem, ArchSandyBridge, ArchIvyBridge, ArchBroadwell, ArchAMD} {
		if _, err := New(Config{Arch: a}); err != nil {
			t.Errorf("arch %q rejected: %v", a, err)
		}
	}
	if _, err := New(Config{Arch: "pentium"}); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestGenerateTPCHOrderings(t *testing.T) {
	e := testEngine(t)
	for _, o := range []Ordering{OrderNatural, OrderSorted, OrderClustered, OrderRandom, ""} {
		d, err := e.GenerateTPCH(5000, 1, o)
		if err != nil {
			t.Fatalf("ordering %q: %v", o, err)
		}
		if d.Lineitems() != 5000 {
			t.Errorf("ordering %q: %d rows", o, d.Lineitems())
		}
	}
	if _, err := e.GenerateTPCH(5000, 1, "spiral"); err == nil {
		t.Error("unknown ordering accepted")
	}
	if _, err := e.GenerateTPCH(0, 1, OrderNatural); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestQ6EndToEnd(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(30000, 3, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOps() != 5 || len(q.OpNames()) != 5 {
		t.Fatalf("Q6 has %d ops", q.NumOps())
	}
	base, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if base.Qualifying == 0 || base.Millis <= 0 {
		t.Fatalf("degenerate result %+v", base.Result)
	}
	if base.Counters["br_not_taken"] == 0 || base.Counters["l3_access"] == 0 {
		t.Error("counters missing")
	}

	prog, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Stats
	if prog.Qualifying != base.Qualifying {
		t.Errorf("progressive changed results: %d vs %d", prog.Qualifying, base.Qualifying)
	}
	if math.Abs(prog.Sum-base.Sum) > math.Abs(base.Sum)*1e-9 {
		t.Error("progressive changed aggregate")
	}
	if st.Optimizations == 0 {
		t.Error("no optimizations ran")
	}
	if len(st.FinalOrder) != 5 {
		t.Errorf("final order %v", st.FinalOrder)
	}
}

func TestBuildQ6ShipdateAndWithOrder(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 4, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, q6ShipdatePlan(d.ShipdateCutoff(0.3)))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOps() != 4 {
		t.Fatalf("modified Q6 has %d ops", q.NumOps())
	}
	r1, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := q.WithOrder([]int{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Exec(q2, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Qualifying != r2.Qualifying {
		t.Error("result depends on order")
	}
	if _, err := q.WithOrder([]int{0, 0, 1, 2}); err == nil {
		t.Error("invalid permutation accepted")
	}
}

func TestBuildScan(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 5, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_quantity", CmpLT, 10).
		Filter("l_discount", CmpGE, 0.05).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	// Selectivity sanity: quantity<10 is ~18%, discount>=0.05 ~55%.
	frac := float64(res.Qualifying) / float64(d.Lineitems())
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("conjunctive selectivity %v implausible", frac)
	}
	if res.Sum <= 0 {
		t.Error("aggregate empty")
	}

	if _, err := e.Compile(d, Scan("lineitem")); err == nil {
		t.Error("empty predicate list accepted")
	}
	if _, err := e.Compile(d, Scan("lineitem").Filter("nope", CmpLT, 0)); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := e.Compile(d, Scan("galaxy").Filter("x", CmpLT, 0)); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Compile(d, Scan("lineitem").Filter("l_quantity", "!=", 0)); err == nil {
		t.Error("unknown comparison accepted")
	}
}

func TestEstimateSelectivities(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 6, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").Filter("l_quantity", CmpLT, 25)) // ~48%
	if err != nil {
		t.Fatal(err)
	}
	sels, err := e.EstimateSelectivities(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 {
		t.Fatalf("got %d estimates", len(sels))
	}
	if sels[0] < 0.38 || sels[0] > 0.58 {
		t.Errorf("estimated selectivity %v, want ~0.48", sels[0])
	}
}

// TestEstimateSelectivitiesStartsCold: the estimate runs on the pool's core
// 0 from a cold start, so an Exec that left that core warm does not move it.
func TestEstimateSelectivitiesStartsCold(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		d, err := e.GenerateTPCH(20000, 6, OrderRandom)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, Scan("lineitem").
			Filter("l_quantity", CmpLT, 25).
			Filter("l_discount", CmpLE, 0.05).
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.3))))
		if err != nil {
			t.Fatal(err)
		}
		before, err := e.EstimateSelectivities(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec(q, ExecOptions{Mode: ModeProgressive}); err != nil {
			t.Fatal(err)
		}
		after, err := e.EstimateSelectivities(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
				t.Fatalf("workers %d: estimate %v before a progressive Exec, %v after", workers, before, after)
			}
		}
	}
}

func TestRunMicroAdaptiveFacade(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(30000, 9, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-selectivity predicates: the adaptive driver should use the
	// branch-free implementation for most vectors.
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_quantity", CmpLE, 25).
		Filter("l_discount", CmpLE, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeMicroAdaptive, Progressive: Progressive{Interval: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying != base.Qualifying {
		t.Errorf("micro-adaptive changed results: %d vs %d", res.Qualifying, base.Qualifying)
	}
	if res.Impl.BranchFreeVectors == 0 {
		t.Error("never used the branch-free scan on mid-selectivity predicates")
	}
}

func TestWorkersFacade(t *testing.T) {
	run := func(cfg Config, ref refPath) (Result, Result, Stats) {
		e, err := newRef(cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(30000, 3, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, q6Plan())
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
		if err != nil {
			t.Fatal(err)
		}
		return base.Result, prog.Result, prog.Stats
	}
	serialBase, serialProg, _ := run(Config{VectorSize: 1024}, refPath{})
	parBase, parProg, st := run(Config{VectorSize: 1024, Workers: 4}, refPath{})
	if parBase.Qualifying != serialBase.Qualifying || parBase.Sum != serialBase.Sum {
		t.Errorf("parallel base result %d/%v, serial %d/%v",
			parBase.Qualifying, parBase.Sum, serialBase.Qualifying, serialBase.Sum)
	}
	if parProg.Qualifying != serialProg.Qualifying || parProg.Sum != serialProg.Sum {
		t.Errorf("parallel progressive result %d/%v, serial %d/%v",
			parProg.Qualifying, parProg.Sum, serialProg.Qualifying, serialProg.Sum)
	}
	if parBase.Cycles >= serialBase.Cycles {
		t.Errorf("4-core makespan %d not below serial %d", parBase.Cycles, serialBase.Cycles)
	}
	if st.Optimizations == 0 {
		t.Error("parallel progressive never optimized")
	}

	scalarBase, _, _ := run(Config{VectorSize: 1024}, refPath{scalar: true})
	if scalarBase.Qualifying != serialBase.Qualifying || scalarBase.Sum != serialBase.Sum {
		t.Errorf("scalar mode result %d/%v, batch %d/%v",
			scalarBase.Qualifying, scalarBase.Sum, serialBase.Qualifying, serialBase.Sum)
	}
	e, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 2 {
		t.Errorf("Workers() = %d", e.Workers())
	}
}
