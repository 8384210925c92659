package progopt

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The join-graph surface (JoinOn edges, cross-filter pushdown, greedy
// default order, multi-hop probes) extends the determinism contract: a
// 4-table graph query must produce bit-identical results, cycles, and PMU
// counters across Workers × GOMAXPROCS × fused/unfused × execution modes,
// and through the workload server. These tests pin that matrix plus the
// compile-time validation and fingerprint canonicalization of graphs.

// graphTestPlan declares the 4-table graph lineitem→{orders→customer, part}
// with edges deliberately scrambled (customer's edge first, though it chains
// off orders) and predicates on three different tables.
func graphTestPlan(d *Dataset) *Plan {
	return Scan("lineitem").
		JoinOn("orders", "o_custkey", "customer").
		JoinOn("lineitem", "l_orderkey", "orders").
		JoinOn("lineitem", "l_partkey", "part").
		Filter("l_quantity", CmpLT, 30).
		Filter("o_orderdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("p_size", CmpLE, 25).
		Filter("c_acctbal", CmpGE, 0.0).
		Sum("l_extendedprice * l_discount")
}

// joinProbeShape builds the benchmark of record's join_probe workload at a
// fifth of its size: the 4-table graph over 200 000 randomly ordered
// lineitems on four cores, and runs it fixed (the greedy order) and
// progressive at Interval 10.
func joinProbeShape(tb testing.TB, seed int64) (fixed, progressive func() ExecResult) {
	tb.Helper()
	e, err := New(Config{VectorSize: 1024, Workers: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	d, err := e.GenerateTPCH(200_000, seed, OrderRandom)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := e.Compile(d, graphTestPlan(d))
	if err != nil {
		tb.Fatal(err)
	}
	run := func(opt ExecOptions) func() ExecResult {
		return func() ExecResult {
			res, err := e.Exec(q, opt)
			if err != nil {
				tb.Fatal(err)
			}
			return res
		}
	}
	return run(ExecOptions{Mode: ModeFixed}), run(ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 10}})
}

// TestJoinProbeProgressiveWithinReachOfGreedy: on this graph the greedy order
// is the best there is, so all progressive can do is not lose. Its run —
// sampling, recompiles and reverted steps included — must stay within 7 % of
// the fixed order's cycles, with at most four reverts.
func TestJoinProbeProgressiveWithinReachOfGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("four 200 000-row join runs")
	}
	for _, seed := range []int64{7, 14} {
		fixed, progressive := joinProbeShape(t, seed)
		fx, pr := fixed(), progressive()
		if pr.Qualifying != fx.Qualifying || pr.Sum != fx.Sum {
			t.Fatalf("seed %d: progressive answers %d/%v, fixed %d/%v", seed, pr.Qualifying, pr.Sum, fx.Qualifying, fx.Sum)
		}
		if float64(pr.Cycles) > 1.07*float64(fx.Cycles) || pr.Stats.Reverts > 4 {
			t.Errorf("seed %d: progressive %d cycles against %d fixed (%.3fx), %d reverts; ledger %+v",
				seed, pr.Cycles, fx.Cycles, float64(pr.Cycles)/float64(fx.Cycles), pr.Stats.Reverts, pr.Stats.Ledger)
		}
		l := pr.Stats.Ledger
		if l.SampleCycles+l.RecompileCycles+l.RevertedCycles > pr.Cycles || l.RegretCycles > l.RevertedCycles {
			t.Errorf("seed %d: ledger %+v exceeds the run's %d cycles", seed, l, pr.Cycles)
		}
	}
}

// graphRun executes the graph plan on a fresh engine in the given
// configuration.
func graphRun(t *testing.T, workers int, mode Mode, noFuse bool) ExecResult {
	t.Helper()
	e, err := newRef(Config{VectorSize: 1024, Workers: workers}, refPath{noFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, graphTestPlan(d))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJoinGraphDeterminismMatrix: the 4-table graph query is bit-identical —
// results, cycles, and every PMU counter — across GOMAXPROCS {1,2,4,8} ×
// fused/unfused for each (Workers, mode) cell. Join vectors are the long
// morsels (two orders of magnitude above the guaranteed minimum), so here
// nearly every early assignment rests on a published clock.
func TestJoinGraphDeterminismMatrix(t *testing.T) {
	for _, workers := range detWorkers {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			prev := runtime.GOMAXPROCS(1)
			ref := graphRun(t, workers, mode, false)
			runtime.GOMAXPROCS(prev)
			if ref.Qualifying == 0 {
				t.Fatalf("workers=%d/%s: reference selected nothing", workers, mode)
			}
			for _, gmp := range detProcs {
				for _, noFuse := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/%s/gomaxprocs=%d/nofuse=%v", workers, mode, gmp, noFuse)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
						got := graphRun(t, workers, mode, noFuse)
						sameResult(t, name, ref.Result, got.Result)
						sameStats(t, name, ref.Stats, got.Stats)
					})
				}
			}
		}
	}
}

// TestJoinGraphScalarOracle: the scalar row loop and the batch kernels agree
// on the graph query's answer (the scalar loop is the reference semantics).
func TestJoinGraphScalarOracle(t *testing.T) {
	run := func(scalar bool) ExecResult {
		t.Helper()
		e, err := newRef(Config{VectorSize: 1024}, refPath{scalar: scalar})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		d, err := e.GenerateTPCH(24*1024, 37, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, graphTestPlan(d))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scalar, batch := run(true), run(false)
	if scalar.Qualifying != batch.Qualifying || scalar.Sum != batch.Sum {
		t.Errorf("scalar %d/%v vs batch %d/%v", scalar.Qualifying, scalar.Sum, batch.Qualifying, batch.Sum)
	}
}

// TestJoinGraphServedMatchesExec: a graph query that has the server's pool
// to itself executes exactly like Engine.Exec — results and cycles.
func TestJoinGraphServedMatchesExec(t *testing.T) {
	setup := func(workers int) (*Engine, *Dataset) {
		t.Helper()
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(24*1024, 37, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		return e, d
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Separate engines so both paths compile into identical address
			// spaces (Compile reserves join hash tables).
			eDirect, dDirect := setup(workers)
			defer eDirect.Close()
			q, err := eDirect.Compile(dDirect, graphTestPlan(dDirect))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := eDirect.Exec(q, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			eServed, dServed := setup(workers)
			defer eServed.Close()
			srv, err := NewServer(eServed, ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tk, err := srv.Submit(dServed, graphTestPlan(dServed), ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			served, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "served", direct.Result, served.Result)
		})
	}
}

// TestJoinGraphExplain: Explain reports the resolved edges in greedy order
// (smallest build relation first under connectivity) with hop counts and
// pushdown counts.
func TestJoinGraphExplain(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, graphTestPlan(d))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Joins) != 3 {
		t.Fatalf("explained %d edges, want 3: %+v", len(ex.Joins), ex.Joins)
	}
	// Greedy: part (n/30 rows) places before orders (n/4); customer (n/40)
	// is smaller than both but chains off orders, so connectivity holds it
	// back until orders is joined.
	want := []string{"part", "orders", "customer"}
	for i, j := range ex.Joins {
		if j.To != want[i] {
			t.Errorf("edge %d joins %q, want %q (greedy order %+v)", i, j.To, want[i], ex.Joins)
		}
	}
	if ex.Joins[2].Hops != 2 {
		t.Errorf("customer probe hops = %d, want 2 (lineitem→orders→customer)", ex.Joins[2].Hops)
	}
	if ex.Joins[0].Pushed != 1 || ex.Joins[1].Pushed != 1 || ex.Joins[2].Pushed != 1 {
		t.Errorf("pushdown counts %+v, want one predicate per table", ex.Joins)
	}
	s := ex.String()
	if !strings.Contains(s, "join graph (greedy order):") {
		t.Errorf("Explain output lacks the join-graph line:\n%s", s)
	}
	// A reordered query is the same join graph: WithOrder keeps the edges.
	perm := make([]int, q.NumOps())
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	qr, err := q.WithOrder(perm)
	if err != nil {
		t.Fatal(err)
	}
	exr, err := e.Explain(qr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exr.Joins, ex.Joins) {
		t.Errorf("reordered query explains edges %+v, compiled query %+v", exr.Joins, ex.Joins)
	}
}

// TestJoinGraphCompileErrors: every graph-validation failure names the
// offending table or column and the valid alternatives, so the message alone
// is enough to fix the plan.
func TestJoinGraphCompileErrors(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(4096, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan *Plan
		want []string // all substrings must appear
	}{
		{
			"unknown edge table",
			Scan("lineitem").JoinOn("lineitem", "l_orderkey", "galaxy").Filter("l_quantity", CmpLT, 10),
			[]string{`unknown table "galaxy"`, "customer", "lineitem", "nation", "orders", "part"},
		},
		{
			"unknown key column",
			Scan("lineitem").JoinOn("lineitem", "l_nope", "orders").Filter("l_quantity", CmpLT, 10),
			[]string{`no column "l_nope"`, "l_orderkey", "l_partkey"},
		},
		{
			"non-integer key column",
			Scan("lineitem").JoinOn("lineitem", "l_discount", "orders").Filter("l_quantity", CmpLT, 10),
			[]string{`join key "l_discount"`, "integer foreign-key column"},
		},
		{
			"key values out of range",
			Scan("lineitem").JoinOn("lineitem", "l_quantity", "nation").Filter("l_quantity", CmpLT, 10),
			[]string{"key values span", `not valid row ids of "nation"`, "25 rows"},
		},
		{
			"disconnected edge",
			Scan("lineitem").JoinOn("customer", "c_nationkey", "nation").Filter("l_quantity", CmpLT, 10),
			[]string{"disconnected", "customer→nation", `reachable from "lineitem"`},
		},
		{
			"duplicate join target",
			Scan("lineitem").
				JoinOn("lineitem", "l_orderkey", "orders").
				JoinOn("lineitem", "l_orderkey", "orders").
				Filter("l_quantity", CmpLT, 10),
			[]string{`"orders" is already in the plan`, "tree"},
		},
		{
			"self join",
			Scan("lineitem").JoinOn("orders", "o_custkey", "orders").Filter("l_quantity", CmpLT, 10),
			[]string{"cannot join itself"},
		},
		{
			"filter on unjoined table",
			Scan("lineitem").JoinOn("lineitem", "l_orderkey", "orders").Filter("c_acctbal", CmpGE, 0.0),
			[]string{`"c_acctbal" belongs to "customer"`, "does not join", "JoinOn"},
		},
		{
			"unknown filter column",
			Scan("lineitem").JoinOn("lineitem", "l_orderkey", "orders").Filter("l_nope", CmpLT, 10),
			[]string{`unknown column "l_nope"`, "lineitem", "orders", "l_shipdate", "o_orderdate"},
		},
		{
			"legacy cross-table filter suggests JoinOn",
			Scan("lineitem").Filter("o_orderdate", CmpLE, 1),
			[]string{`belongs to "orders"`, "JoinOn"},
		},
		{
			"legacy unknown column lists alternatives",
			Scan("lineitem").Filter("l_nope", CmpLE, 1),
			[]string{`unknown column "l_nope"`, "l_shipdate"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Compile(d, tc.plan)
			if err == nil {
				t.Fatal("compiled successfully, want error")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q\n  missing substring %q", err, want)
				}
			}
		})
	}
}

// TestJoinGraphAnyTableDrives: any table of the data set can root the graph
// (orders→customer→nation), edges or no edges — a dimension table scanned
// without a join returns what a plain loop over its columns counts, at every
// worker count and in both fixed and progressive mode.
func TestJoinGraphAnyTableDrives(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(8192, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("orders").
		JoinOn("orders", "o_custkey", "customer").
		JoinOn("customer", "c_nationkey", "nation").
		Filter("o_orderdate", CmpLE, int64(d.ShipdateCutoff(0.9))).
		Filter("c_acctbal", CmpGE, 0.0).
		Sum("o_totalprice"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying == 0 {
		t.Error("orders-driven graph selected nothing")
	}

	// Without edges: count and sum by hand, in row order.
	dates, prices := d.d.Orders.Column("o_orderdate").I32(), d.d.Orders.Column("o_totalprice").F64()
	var ordersCount int64
	var ordersSum float64
	for i, date := range dates {
		if int64(date) <= midOrderDate && prices[i] >= 1000 {
			ordersCount++
			ordersSum += prices[i]
		}
	}
	var partCount int64
	for _, size := range d.d.Part.Column("p_size").I32() {
		if size < 20 {
			partCount++
		}
	}
	cases := []struct {
		name  string
		plan  func() *Plan
		count int64
		sum   float64
	}{
		{"orders drives without edges", func() *Plan {
			return Scan("orders").
				Filter("o_orderdate", CmpLE, midOrderDate).
				Filter("o_totalprice", CmpGE, 1000.0).
				Sum("o_totalprice")
		}, ordersCount, ordersSum},
		{"part drives without edges", func() *Plan {
			return Scan("part").Filter("p_size", CmpLT, 20)
		}, partCount, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.count == 0 {
				t.Fatal("degenerate case: the plain loop selects nothing")
			}
			var sums []float64
			for _, workers := range []int{1, 4} {
				ew, err := New(Config{VectorSize: 256, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer ew.Close()
				q, err := ew.Compile(d, tc.plan())
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []Mode{ModeFixed, ModeProgressive} {
					res, err := ew.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 2}})
					if err != nil {
						t.Fatal(err)
					}
					// The engine adds per-vector partial sums: equal to the row-order
					// sum up to rounding, and to itself bit for bit.
					if res.Qualifying != tc.count || math.Abs(res.Sum-tc.sum) > 1e-9*tc.sum {
						t.Errorf("workers=%d/%s: %d rows, sum %v; the plain loop has %d, %v",
							workers, mode, res.Qualifying, res.Sum, tc.count, tc.sum)
					}
					sums = append(sums, res.Sum)
					if math.Float64bits(res.Sum) != math.Float64bits(sums[0]) {
						t.Errorf("workers=%d/%s: sum %v, the first run's is %v", workers, mode, res.Sum, sums[0])
					}
				}
			}
		})
	}
}

// TestDetectJoinLocality: the build side is any table of the data set, looked
// up by name; a co-clustered edge reads as such and an unknown table is an
// error.
func TestDetectJoinLocality(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 16, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, ordersEdge(Scan("lineitem"), midOrderDate))
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := e.DetectJoinLocality(q, d, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifying == 0 || rep.Class != "co-clustered" {
		t.Errorf("natural order: %d rows, locality %+v; want a co-clustered probe", res.Qualifying, rep)
	}
	if _, _, err := e.DetectJoinLocality(q, d, "customer"); err != nil {
		t.Errorf("customer is a table of the data set: %v", err)
	}
	if _, _, err := e.DetectJoinLocality(q, d, "galaxy"); err == nil || !strings.Contains(err.Error(), `unknown build table "galaxy"`) {
		t.Errorf("unknown build table: %v", err)
	}
}

// TestJoinGraphFingerprintCanonical: isomorphic graphs — same edges and
// predicates in any declaration order — share a fingerprint; any shape
// difference (extra edge, re-keyed edge, different bound) changes it.
func TestJoinGraphFingerprintCanonical(t *testing.T) {
	a := Scan("lineitem").
		JoinOn("lineitem", "l_orderkey", "orders").
		JoinOn("orders", "o_custkey", "customer").
		Filter("c_acctbal", CmpGE, 0.0)
	b := Scan("lineitem").
		Filter("c_acctbal", CmpGE, 0.0).
		JoinOn("orders", "o_custkey", "customer").
		JoinOn("lineitem", "l_orderkey", "orders")
	fp := func(p *Plan) string {
		t.Helper()
		f, err := p.fingerprint(1)
		if err != nil {
			t.Fatal(err)
		}
		return f.String()
	}
	if fp(a) != fp(b) {
		t.Errorf("isomorphic graphs hash differently: %s, %s", fp(a), fp(b))
	}
	different := []*Plan{
		// Extra edge.
		Scan("lineitem").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("orders", "o_custkey", "customer").
			JoinOn("customer", "c_nationkey", "nation").
			Filter("c_acctbal", CmpGE, 0.0),
		// Re-keyed edge.
		Scan("lineitem").
			JoinOn("lineitem", "l_partkey", "orders").
			JoinOn("orders", "o_custkey", "customer").
			Filter("c_acctbal", CmpGE, 0.0),
		// Different bound.
		Scan("lineitem").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("orders", "o_custkey", "customer").
			Filter("c_acctbal", CmpGE, 1.0),
	}
	for i, p := range different {
		if fp(p) == fp(a) {
			t.Errorf("variant %d collides with the base graph", i)
		}
	}
}

// TestJoinGraphPlanCache: multi-table plans flow through the server's
// fingerprint-keyed plan cache — isomorphic resubmission hits, LRU capacity
// evicts, and a data-set generation bump invalidates.
func TestJoinGraphPlanCache(t *testing.T) {
	e, err := New(Config{VectorSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(8192, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{PlanCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	graph := func(bound int) *Plan {
		return Scan("lineitem").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("orders", "o_custkey", "customer").
			Filter("l_quantity", CmpLT, bound).
			Sum("l_extendedprice")
	}
	submit := func(d *Dataset, p *Plan) *ServedInfo {
		t.Helper()
		tk, err := srv.Submit(d, p, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res.Served
	}
	first := submit(d, graph(10))
	// Isomorphic resubmission (edges scrambled) hits the cache.
	iso := submit(d, Scan("lineitem").
		JoinOn("orders", "o_custkey", "customer").
		Filter("l_quantity", CmpLT, 10).
		JoinOn("lineitem", "l_orderkey", "orders").
		Sum("l_extendedprice"))
	if !iso.PlanCacheHit || iso.Fingerprint != first.Fingerprint {
		t.Errorf("isomorphic graph resubmission missed the cache: %+v vs %+v", iso, first)
	}
	// A different graph plan evicts the first from the size-1 cache.
	submit(d, graph(20))
	again := submit(d, graph(10))
	if again.PlanCacheHit {
		t.Error("evicted graph plan still hit the cache")
	}
	if srv.Stats().PlanCacheEvictions == 0 {
		t.Error("size-1 cache never evicted")
	}
	// A regenerated data set bumps the generation and invalidates.
	d2, err := e.GenerateTPCH(8192, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	fresh := submit(d2, graph(10))
	if fresh.PlanCacheHit || fresh.Fingerprint == again.Fingerprint {
		t.Error("generation bump did not invalidate the multi-table plan cache entry")
	}
}
