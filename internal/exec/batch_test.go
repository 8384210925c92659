package exec

import (
	"errors"
	"math/rand"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

// orderInsensitiveEvents are the PMU counts that batch execution must
// preserve exactly: every (operator, row) evaluation performs the same loads
// and retires the same instructions and branch outcomes in both modes, so
// any count that does not depend on access interleaving is identical.
// (Cache hit levels and, on global-history predictors, misprediction
// attribution may legitimately shift with the op-major interleaving; the
// default per-site saturating predictor preserves even the MP counts, which
// the test asserts too.)
var orderInsensitiveEvents = []pmu.Event{
	pmu.BrCond, pmu.BrTaken, pmu.BrNotTaken,
	pmu.BrMPTaken, pmu.BrMPNotTaken, pmu.BrMP,
	pmu.L1Access, pmu.Instructions,
}

// runBothModes executes q identically on two fresh one-core pools — one
// scalar, one batch — and returns both results. The caller binds the columns.
func runBothModes(t *testing.T, q *Query, vectorSize int, impl ScanImpl) (scalar, batch tableRun) {
	t.Helper()
	return wholeTable(t, poolOfOne(t, vectorSize, true), q, impl), wholeTable(t, poolOfOne(t, vectorSize, false), q, impl)
}

func assertEquivalent(t *testing.T, label string, scalar, batch tableRun) {
	t.Helper()
	if scalar.Qualifying != batch.Qualifying {
		t.Errorf("%s: qualifying scalar=%d batch=%d", label, scalar.Qualifying, batch.Qualifying)
	}
	if scalar.Sum != batch.Sum { // bit-identical, not approximately equal
		t.Errorf("%s: sum scalar=%v batch=%v", label, scalar.Sum, batch.Sum)
	}
	if scalar.Vectors != batch.Vectors {
		t.Errorf("%s: vectors scalar=%d batch=%d", label, scalar.Vectors, batch.Vectors)
	}
	for _, ev := range orderInsensitiveEvents {
		if s, b := scalar.Counters.Get(ev), batch.Counters.Get(ev); s != b {
			t.Errorf("%s: %v scalar=%d batch=%d", label, ev, s, b)
		}
	}
}

// TestBatchScalarEquivalenceQ6 is the property test of the batch refactor:
// on randomized TPC-H Q6 variants (random shipdate windows, random operator
// permutations, random vector sizes) the batch pipeline produces bit-
// identical Qualifying/Sum and identical PMU load/branch counts to the
// tuple-at-a-time row loop.
func TestBatchScalarEquivalenceQ6(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := tpch.MustGenerate(tpch.Config{Lineitems: 30000, Seed: 11})
	for trial := 0; trial < 8; trial++ {
		lo := int32(9000 + rng.Intn(1000))
		hi := lo + int32(100+rng.Intn(700))
		q, err := q6WithShipdateWindow(d, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		perms := Permutations(len(q.Ops))
		q, err = q.WithOrder(perms[rng.Intn(len(perms))])
		if err != nil {
			t.Fatal(err)
		}
		// Bind once on a throwaway allocator; both engines share addresses.
		if err := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
			t.Fatal(err)
		}
		vs := 256 << rng.Intn(4) // 256..2048
		scalar, batch := runBothModes(t, q, vs, ImplBranching)
		assertEquivalent(t, "q6", scalar, batch)
		if scalar.Qualifying == 0 {
			t.Error("degenerate trial: no qualifying tuples")
		}
	}
}

// TestBatchScalarEquivalenceBranchFree covers the predicated scan kernels.
func TestBatchScalarEquivalenceBranchFree(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 20000, Seed: 3})
	q, err := Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	scalar, batch := runBothModes(t, q, 512, ImplBranchFree)
	assertEquivalent(t, "branch-free", scalar, batch)
}

// TestBatchScalarEquivalenceJoin covers the FK-join batch kernel, including
// an expensive build-side filter.
func TestBatchScalarEquivalenceJoin(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 20000, Seed: 5})
	alloc := cpu.MustNew(cpu.ScaledXeon())
	dateCut := tpch.QuantileInt32(d.Orders.Column("o_orderdate"), 0.4)
	filter := &Predicate{Col: d.Orders.Column("o_orderdate"), Op: LE, I: int64(dateCut), ExtraCostInstr: 7}
	join, err := NewFKJoin(alloc, d.Lineitem.Column("l_orderkey"), d.NumOrders, filter, "join-orders")
	if err != nil {
		t.Fatal(err)
	}
	pred := &Predicate{Col: d.Lineitem.Column("l_quantity"), Op: LT, I: 30}
	price := d.Lineitem.Column("l_extendedprice")
	pf := price.F64()
	q := &Query{
		Table: d.Lineitem,
		Ops:   []Op{pred, join},
		Agg: &Aggregate{
			Cols: []*columnar.Column{price},
			F:    func(row int) float64 { return pf[row] },
		},
	}
	if err := MustEngine(alloc, 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	scalar, batch := runBothModes(t, q, 1024, ImplBranching)
	assertEquivalent(t, "join", scalar, batch)
	if scalar.Qualifying == 0 {
		t.Error("degenerate configuration: no qualifying tuples")
	}
}

// TestBatchScalarEquivalenceGroupBy covers the hash-aggregate batch path.
func TestBatchScalarEquivalenceGroupBy(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 20000, Seed: 9})
	q := &Query{
		Table: d.Lineitem,
		Ops:   []Op{&Predicate{Col: d.Lineitem.Column("l_quantity"), Op: LE, I: 25}},
	}
	run := func(scalarMode bool) GroupResult {
		e := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
		if err := e.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		g, err := NewGroupBy(e.CPU(), d.Lineitem.Column("l_quantity"), d.Lineitem.Column("l_extendedprice"), KeyDomain{Groups: 64})
		if err != nil {
			t.Fatal(err)
		}
		res, err := poolOfOne(t, 1024, scalarMode).NewBlockRun().runGroupBy(q, []*GroupBy{g})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scalar, batch := run(true), run(false)
	if scalar.Qualifying != batch.Qualifying {
		t.Errorf("qualifying scalar=%d batch=%d", scalar.Qualifying, batch.Qualifying)
	}
	if len(scalar.Groups) != len(batch.Groups) {
		t.Fatalf("group count scalar=%d batch=%d", len(scalar.Groups), len(batch.Groups))
	}
	for i := range scalar.Groups {
		if scalar.Groups[i] != batch.Groups[i] {
			t.Errorf("group %d: scalar=%+v batch=%+v", i, scalar.Groups[i], batch.Groups[i])
		}
	}
}

// TestBindQueryTracksBoundState pins the satellite fix: binding state is
// explicit, so BindQuery never re-binds already-bound columns — even one
// legitimately bound at address 0 — and binds late-added unbound columns.
func TestBindQueryTracksBoundState(t *testing.T) {
	tb := columnar.NewTable("t")
	a := columnar.NewInt64("a", []int64{1, 2, 3})
	b := columnar.NewInt64("b", []int64{4, 5, 6})
	tb.MustAddColumn(a)
	tb.MustAddColumn(b)
	a.Bind(0) // address 0 is a legitimate base
	e := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 2)
	q := &Query{Table: tb, Ops: []Op{&Predicate{Col: a, Op: GT, I: 0}}}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	if a.Base() != 0 {
		t.Errorf("column bound at 0 was re-bound to %#x", a.Base())
	}
	if !b.Bound() {
		t.Error("unbound column not bound")
	}
	bBase := b.Base()
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	if b.Base() != bBase {
		t.Errorf("re-binding moved column from %#x to %#x", bBase, b.Base())
	}
}

// TestBindQueryRejectsUnknownCmpOp pins where a comparison outside LE..EQ is
// turned away: Engine.BindQuery and Parallel.BindQuery return an
// *UnknownCmpOpError naming the operator — for a predicate and for a join's
// build-side filter alike — and bind nothing, so no kernel's default arm is
// ever reached.
func TestBindQueryRejectsUnknownCmpOp(t *testing.T) {
	for _, bad := range []CmpOp{EQ + 1, LE - 1} {
		tb := columnar.NewTable("t")
		a := columnar.NewInt64("a", []int64{0, 1, 2})
		tb.MustAddColumn(a)
		build := columnar.NewInt64("b", []int64{7, 8, 9})
		alloc := cpu.MustNew(cpu.ScaledXeon())
		join, err := NewFKJoin(alloc, a, 3, &Predicate{Col: build, Op: bad, I: 8}, "join-b")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			q        *Query
			operator string
		}{
			{&Query{Table: tb, Ops: []Op{&Predicate{Col: a, Op: GE, I: 0}, &Predicate{Col: a, Op: bad, I: 1, Label: "a ? 1"}}}, "a ? 1"},
			{&Query{Table: tb, Ops: []Op{join}}, "join-b"},
		} {
			par, err := NewParallel(cpu.ScaledXeon(), 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			for name, bind := range map[string]func(*Query) error{
				"Engine":   MustEngine(cpu.MustNew(cpu.ScaledXeon()), 2).BindQuery,
				"Parallel": par.BindQuery,
			} {
				var unknown *UnknownCmpOpError
				if err := bind(tc.q); !errors.As(err, &unknown) {
					t.Fatalf("%s.BindQuery with comparison %d on %s: error %v, want *UnknownCmpOpError", name, int(bad), tc.operator, err)
				}
				if unknown.Op != bad || unknown.Operator != tc.operator {
					t.Errorf("%s.BindQuery reported %+v, want comparison %d on %q", name, *unknown, int(bad), tc.operator)
				}
			}
			if a.Bound() || build.Bound() {
				t.Errorf("a rejected query on %s still bound a column", tc.operator)
			}
		}
	}
}
