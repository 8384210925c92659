package progopt

import (
	"strings"
	"testing"
)

// TestCompileValidation exercises the compiler's rejection paths: plans that
// would have corrupted reads or produced meaningless results under the old
// builders now fail with targeted errors.
func TestCompileValidation(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(5000, 11, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan *Plan
		want string // substring of the error
	}{
		{"nil steps", Scan("lineitem"), "at least one operator"},
		{"unknown driving table", Scan("galaxy").Filter("x", CmpLT, 1), "unknown table"},
		{"cross-table predicate", Scan("lineitem").Filter("o_orderdate", CmpLE, 1), "belongs to \"orders\""},
		{"cross-table part predicate", Scan("lineitem").Filter("p_size", CmpLE, 1), "belongs to \"part\""},
		{"unknown column", Scan("lineitem").Filter("l_nope", CmpLE, 1), "unknown column"},
		{"unknown comparison", Scan("lineitem").Filter("l_quantity", "!=", 1), "unknown comparison"},
		{"float bound on int column", Scan("lineitem").Filter("l_quantity", CmpLE, 2.5), "integer bound"},
		{"int bound on float column", Scan("lineitem").Filter("l_discount", CmpLE, 1), "float bound"},
		{"unsupported bound type", Scan("lineitem").Filter("l_quantity", CmpLE, "ten"), "unsupported bound type"},
		{"label before step", Scan("lineitem").Label("x"), "before any step"},
		{"unknown aggregate column", Scan("lineitem").Filter("l_quantity", CmpLE, 10).Sum("l_nope"), "unknown aggregate column"},
		{"three-factor aggregate", Scan("lineitem").Filter("l_quantity", CmpLE, 10).Sum("l_tax * l_tax * l_tax"), "factors"},
		{"empty aggregate factor", Scan("lineitem").Filter("l_quantity", CmpLE, 10).Sum("l_tax * "), "malformed"},
		{"sum and group together", Scan("lineitem").Filter("l_quantity", CmpLE, 10).
			Sum("l_extendedprice").GroupBy("l_quantity", "l_extendedprice"), "both Sum and GroupBy"},
		{"group on float key", Scan("lineitem").Filter("l_quantity", CmpLE, 10).
			GroupBy("l_discount", "l_extendedprice"), "integer-kind"},
		{"group on unknown key", Scan("lineitem").Filter("l_quantity", CmpLE, 10).
			GroupBy("l_nope", "l_extendedprice"), "unknown column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Compile(d, tc.plan)
			if err == nil {
				t.Fatalf("compile accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := e.Compile(nil, Scan("lineitem")); err == nil {
		t.Error("nil data set accepted")
	}
	if _, err := e.Compile(d, nil); err == nil {
		t.Error("nil plan accepted")
	}
}

// TestPlanBuilderEndToEnd compiles and executes a plan using every builder
// feature: typed bounds, expensive filters, joins, labels, and a sum.
func TestPlanBuilderEndToEnd(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 12, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.6))).Label("ship<=p60").
		FilterCost("l_quantity", CmpLT, 30, 20).
		Filter("l_discount", CmpGE, 0.03).
		JoinOn("lineitem", "l_orderkey", "orders").Label("join-orders").
		Filter("o_orderdate", CmpLE, midOrderDate).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		t.Fatal(err)
	}
	if q.NumOps() != 4 {
		t.Fatalf("%d ops", q.NumOps())
	}
	if names := q.OpNames(); names[0] != "ship<=p60" || names[3] != "join-orders" {
		t.Errorf("op names %v", names)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying == 0 || res.Sum <= 0 {
		t.Fatalf("degenerate result %+v", res.Result)
	}
	frac := float64(res.Qualifying) / float64(d.Lineitems())
	if frac <= 0 || frac >= 0.5 {
		t.Errorf("conjunctive selectivity %v implausible", frac)
	}
	prog, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Qualifying != res.Qualifying || prog.Sum != res.Sum {
		t.Errorf("progressive changed results: %d/%v vs %d/%v",
			prog.Qualifying, prog.Sum, res.Qualifying, res.Sum)
	}
	if prog.Stats.Optimizations == 0 {
		t.Error("no optimizations ran")
	}
}

// TestExecModeErrors covers the entry point's own validation.
func TestExecModeErrors(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(5000, 13, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").Filter("l_quantity", CmpLE, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(nil, ExecOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := e.Exec(q, ExecOptions{Mode: Mode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	// The driver's enumerator-driven mode is internal to the experiments.
	if _, err := e.Exec(q, ExecOptions{Mode: Mode(3)}); err == nil {
		t.Error("mode 3 accepted")
	}
	gq, err := e.Compile(d, Scan("lineitem").
		Filter("l_quantity", CmpLE, 10).GroupBy("l_quantity", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(gq, ExecOptions{Mode: ModeProgressive}); err == nil {
		t.Error("progressive grouped plan accepted")
	}
}

// TestGroupByDomainSizing verifies the satellite fix: the hash table is
// sized from the key column's actual domain, not a hard-coded 1024.
func TestGroupByDomainSizing(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 14, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	// l_orderkey has a wide domain (~n/4 distinct orders), far beyond the old
	// hard-coded 1024; l_quantity spans 1..50.
	wide, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.05).GroupBy("l_orderkey", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.05).GroupBy("l_quantity", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	we, err := e.Explain(wide)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := e.Explain(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if we.GroupDistinct <= 1024 {
		t.Errorf("wide-domain key sized to %d slots; the old hard-coded sizing was 1024", we.GroupDistinct)
	}
	if ne.GroupDistinct > 64 {
		t.Errorf("narrow-domain key (1..50) sized to %d slots", ne.GroupDistinct)
	}
	// The wide grouping must actually produce its many groups intact.
	res, err := e.Exec(wide, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) <= 1024 {
		t.Errorf("only %d groups out of a ~%d-key domain", len(res.Groups), we.GroupDistinct)
	}
	var total int64
	for _, g := range res.Groups {
		total += g.Count
	}
	if total != res.Qualifying {
		t.Errorf("group counts sum to %d, run qualified %d", total, res.Qualifying)
	}
}

// TestParallelGroupByDeterminism verifies the tentpole's new capability:
// grouped aggregation through Exec is morsel-parallel under Workers > 1 with
// bit-identical groups across worker counts and a makespan below the serial
// cycle count.
func TestParallelGroupByDeterminism(t *testing.T) {
	type run struct {
		res ExecResult
	}
	runWith := func(workers int) run {
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(30000, 15, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, Scan("lineitem").
			Filter("l_discount", CmpGE, 0.03).
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.7))).
			GroupBy("l_quantity", "l_extendedprice"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return run{res: res}
	}
	serial := runWith(1)
	if len(serial.res.Groups) == 0 {
		t.Fatal("no groups")
	}
	for _, workers := range []int{2, 4} {
		par := runWith(workers)
		if par.res.Qualifying != serial.res.Qualifying {
			t.Errorf("%d workers: qualifying %d vs serial %d", workers, par.res.Qualifying, serial.res.Qualifying)
		}
		if len(par.res.Groups) != len(serial.res.Groups) {
			t.Fatalf("%d workers: %d groups vs serial %d", workers, len(par.res.Groups), len(serial.res.Groups))
		}
		for i, g := range par.res.Groups {
			s := serial.res.Groups[i]
			if g.Key != s.Key || g.Count != s.Count || g.Sum != s.Sum {
				t.Fatalf("%d workers: group %d = %+v, serial %+v (sums must be bit-identical)", workers, i, g, s)
			}
		}
	}
	par4 := runWith(4)
	if par4.res.Cycles >= serial.res.Cycles {
		t.Errorf("4-core grouped makespan %d not below serial %d", par4.res.Cycles, serial.res.Cycles)
	}
	// Determinism: an identical configuration reproduces cycles and counters.
	again := runWith(4)
	if again.res.Cycles != par4.res.Cycles {
		t.Errorf("parallel grouped run not deterministic: %d vs %d cycles", again.res.Cycles, par4.res.Cycles)
	}
}

// TestParallelMicroAdaptive verifies micro-adaptive execution through Exec
// under Workers > 1: identical results to the serial driver, branch-free
// vectors actually chosen from merged counters, and deterministic makespans.
func TestParallelMicroAdaptive(t *testing.T) {
	runWith := func(workers int) ExecResult {
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(60000, 9, OrderRandom)
		if err != nil {
			t.Fatal(err)
		}
		// Mid-selectivity predicates: branch-free should win most vectors.
		q, err := e.Compile(d, Scan("lineitem").
			Filter("l_quantity", CmpLE, 25).
			Filter("l_discount", CmpLE, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeMicroAdaptive, Progressive: Progressive{Interval: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := runWith(1)
	par := runWith(4)
	if par.Qualifying != serial.Qualifying || par.Sum != serial.Sum {
		t.Errorf("parallel micro-adaptive result %d/%v, serial %d/%v",
			par.Qualifying, par.Sum, serial.Qualifying, serial.Sum)
	}
	if par.Impl.BranchFreeVectors == 0 {
		t.Error("merged counters never selected the branch-free scan")
	}
	if par.Cycles >= serial.Cycles {
		t.Errorf("4-core micro-adaptive makespan %d not below serial %d", par.Cycles, serial.Cycles)
	}
	again := runWith(4)
	if again.Cycles != par.Cycles || again.Impl != par.Impl {
		t.Errorf("parallel micro-adaptive not deterministic: %d/%+v vs %d/%+v",
			again.Cycles, again.Impl, par.Cycles, par.Impl)
	}
}

// TestExplainPlanFeatures checks that Explain surfaces the aggregate and
// grouping of a compiled plan.
func TestExplainPlanFeatures(t *testing.T) {
	e, err := New(Config{VectorSize: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.GenerateTPCH(5000, 16, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_quantity", CmpLE, 10).
		GroupBy("l_quantity", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	pe, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Group != "l_quantity, l_extendedprice" {
		t.Errorf("Group = %q", pe.Group)
	}
	if pe.GroupTables != 2 {
		t.Errorf("GroupTables = %d, want one per worker", pe.GroupTables)
	}
	if !strings.Contains(pe.String(), "group by") {
		t.Errorf("rendering lacks grouping: %q", pe.String())
	}
}

// fingerprintPlans are plans with every kind of fingerprint term: integer
// and float bounds, a label, an extra cost, join edges, a sum whose factors
// are spaced and unordered, a grouping, ordering keys in both directions and
// a limit.
func fingerprintPlans() map[string]*Plan {
	return map[string]*Plan{
		"q6": Scan("lineitem").
			Filter("l_shipdate", CmpLE, int64(9500)).
			Filter("l_discount", CmpGE, 0.05).
			Filter("l_discount", CmpLE, 0.07).
			Filter("l_quantity", CmpLT, 24).Sum("l_extendedprice * l_discount"),
		"join": Scan("").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("lineitem", "l_partkey", "part").
			Filter("o_orderdate", CmpLE, int64(8000)).Label("orders80").
			FilterCost("p_size", CmpLE, int64(25), 12).
			Sum(" l_discount*l_extendedprice "),
		"grouped": Scan("lineitem").Filter("l_tax", CmpLE, 0.04).GroupBy("l_quantity", "l_extendedprice"),
		"topk": Scan("lineitem").Filter("l_quantity", CmpLT, 24).
			OrderBy("l_extendedprice", Desc).OrderBy("l_quantity").Limit(10),
	}
}

// TestFingerprintBytesPinned: the fingerprint of each of fingerprintPlans at
// generation 5, captured from the string-building encoder the allocation-free
// one replaced. A plan cache or feedback entry keyed by either is the same.
func TestFingerprintBytesPinned(t *testing.T) {
	want := map[string]string{
		"q6":      "f59b77b251691ba317f0ed140fc08ca1",
		"join":    "01d46608e436ce637f44baa007b054e4",
		"grouped": "5f4f1c8d3c908f3e7bcec384d4f2553a",
		"topk":    "254fd55603a3233edcce642aefc8aaa6",
	}
	for name, p := range fingerprintPlans() {
		fp, err := p.fingerprint(5)
		if err != nil {
			t.Fatal(err)
		}
		if got := fp.String(); got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want[name])
		}
	}
}

// TestFingerprintAllocatesNothing: fingerprinting a plan on submission builds
// no string and no term slice on the heap.
func TestFingerprintAllocatesNothing(t *testing.T) {
	for name, p := range fingerprintPlans() {
		if n := testing.AllocsPerRun(100, func() { p.fingerprint(5) }); n != 0 {
			t.Errorf("%s: fingerprint allocates %v times", name, n)
		}
	}
}
