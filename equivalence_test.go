package progopt

import (
	"fmt"
	"reflect"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// These property tests pin Exec over the (mode, workers, scalar) matrix. In
// every cell two independently constructed engines must agree bit for bit —
// results, cycle counts, PMU counters, optimizer stats: a run is a pure
// function of its configuration, fresh address space included — and the
// scalar cells, which run the tuple-at-a-time row loop (the reference
// semantics, selected through export_test.go), must return the answers of
// the batch cell with the same worker count.

// equivCase is one cell of the acceptance matrix.
type equivCase struct {
	cfg Config
	ref refPath
}

// equivCases is the configuration matrix of the acceptance criterion.
func equivCases() []equivCase {
	var out []equivCase
	for _, workers := range []int{1, 4} {
		for _, scalar := range []bool{false, true} {
			out = append(out, equivCase{Config{VectorSize: 1024, Workers: workers}, refPath{scalar: scalar}})
		}
	}
	return out
}

func caseName(c equivCase) string {
	return fmt.Sprintf("workers=%d/scalar=%v", c.cfg.Workers, c.ref.scalar)
}

// sameResult asserts full bit-identity of two results, counters included.
func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.Qualifying != b.Qualifying {
		t.Errorf("%s: qualifying %d vs %d", label, a.Qualifying, b.Qualifying)
	}
	if a.Sum != b.Sum {
		t.Errorf("%s: sum %v vs %v (must be bit-identical)", label, a.Sum, b.Sum)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("%s: cycles %d vs %d", label, a.Cycles, b.Cycles)
	}
	if a.Millis != b.Millis {
		t.Errorf("%s: millis %v vs %v", label, a.Millis, b.Millis)
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("%s: PMU counters diverge:\n old %v\n new %v", label, a.Counters, b.Counters)
	}
}

func sameStats(t *testing.T, label string, a, b Stats) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats diverge:\n old %+v\n new %+v", label, a, b)
	}
}

// equivWorkload is what one matrix suite executes in every cell: a plan,
// optionally permuted, over a generated data set.
type equivWorkload struct {
	rows  int
	seed  int64
	order Ordering
	plan  *Plan
	perm  []int // nil = as compiled
	opts  ExecOptions
}

// equivMatrix executes the workload twice per cell, each time on a fresh
// engine and data set, asserts the two runs bit-identical, and asserts every
// scalar cell's answer equal to its batch cell's.
func equivMatrix(t *testing.T, label string, w equivWorkload) {
	for _, c := range equivCases() {
		t.Run(caseName(c), func(t *testing.T) {
			first, second := equivExec(t, c, w), equivExec(t, c, w)
			sameResult(t, label, first.Result, second.Result)
			sameStats(t, label, first.Stats, second.Stats)
			if first.Impl != second.Impl {
				t.Errorf("%s: impl stats diverge: %+v vs %+v", label, first.Impl, second.Impl)
			}
			if !reflect.DeepEqual(first.Groups, second.Groups) {
				t.Errorf("%s: groups diverge:\n old %v\n new %v", label, first.Groups, second.Groups)
			}
			if !c.ref.scalar {
				return
			}
			want := equivExec(t, equivCase{cfg: c.cfg}, w)
			if first.Qualifying != want.Qualifying || first.Sum != want.Sum {
				t.Errorf("%s: row loop answers %d/%v, batch kernels %d/%v",
					label, first.Qualifying, first.Sum, want.Qualifying, want.Sum)
			}
			if !reflect.DeepEqual(first.Groups, want.Groups) {
				t.Errorf("%s: row loop groups diverge from batch kernels:\n scalar %v\n batch  %v", label, first.Groups, want.Groups)
			}
		})
	}
}

// equivExec runs the workload on a fresh engine and data set in the cell's
// configuration.
func equivExec(t *testing.T, c equivCase, w equivWorkload) ExecResult {
	t.Helper()
	e, err := newRef(c.cfg, c.ref)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(w.rows, w.seed, w.order)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, w.plan)
	if err != nil {
		t.Fatal(err)
	}
	if w.perm != nil {
		if q, err = q.WithOrder(w.perm); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Exec(q, w.opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// q6Worst is Q6 in the deliberately bad reversed order.
func q6Worst(opts ExecOptions) equivWorkload {
	return equivWorkload{rows: 30000, seed: 21, order: OrderNatural, plan: q6Plan(), perm: []int{4, 3, 2, 1, 0}, opts: opts}
}

// TestEquivalenceFixed: Exec(ModeFixed) across the matrix.
func TestEquivalenceFixed(t *testing.T) {
	equivMatrix(t, "fixed", q6Worst(ExecOptions{Mode: ModeFixed}))
}

// TestEquivalenceProgressive: Exec(ModeProgressive) — results, cycles,
// counters, and optimizer stats.
func TestEquivalenceProgressive(t *testing.T) {
	equivMatrix(t, "progressive", q6Worst(ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}))
}

// TestEquivalenceMicroAdaptive: Exec(ModeMicroAdaptive), implementation
// choices included, on single- and multi-core engines.
func TestEquivalenceMicroAdaptive(t *testing.T) {
	equivMatrix(t, "micro-adaptive", equivWorkload{
		rows: 30000, seed: 9, order: OrderRandom,
		plan: Scan("lineitem").
			Filter("l_quantity", CmpLE, 25).
			Filter("l_discount", CmpLE, 0.05),
		opts: ExecOptions{Mode: ModeMicroAdaptive, Progressive: Progressive{Interval: 3}},
	})
}

// TestEquivalenceGroupBy: Exec on a grouped plan — groups, result, cycles,
// counters.
func TestEquivalenceGroupBy(t *testing.T) {
	equivMatrix(t, "group-by", equivWorkload{
		rows: 20000, seed: 14, order: OrderRandom,
		plan: Scan("lineitem").
			Filter("l_discount", CmpGE, 0.05).
			GroupBy("l_quantity", "l_extendedprice"),
		opts: ExecOptions{Mode: ModeFixed},
	})
}

// TestBuildQ6MatchesInternalOracle ties the facade's hand-written Q6 plan to
// the internal exec.Q6 definition (still the oracle of internal tests and
// experiments). Unlike the matrix suites above — which compare the facade
// with itself — this pins the public surface against an independent
// implementation: same data, same profile, fresh address spaces, full
// bit-identity of results, cycles, and counters.
func TestBuildQ6MatchesInternalOracle(t *testing.T) {
	oracle := func(build func(*tpch.Dataset) (*exec.Query, error)) exec.Result {
		di, err := tpch.Generate(tpch.Config{Lineitems: 30000, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		qi, err := build(di)
		if err != nil {
			t.Fatal(err)
		}
		ei := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
		if err := ei.BindQuery(qi); err != nil {
			t.Fatal(err)
		}
		ri, err := ei.Run(qi)
		if err != nil {
			t.Fatal(err)
		}
		return ri
	}
	facade := func(build func(*Engine, *Dataset) (*Query, error)) (*Query, ExecResult) {
		e, err := New(Config{VectorSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(30000, 21, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		q, err := build(e, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return q, res
	}

	q6, res6 := facade(func(e *Engine, d *Dataset) (*Query, error) { return e.Compile(d, q6Plan()) })
	ref6 := oracle(exec.Q6)
	if res6.Qualifying != ref6.Qualifying || res6.Sum != ref6.Sum ||
		res6.Cycles != ref6.Cycles {
		t.Errorf("q6Plan diverges from exec.Q6: %d/%v/%d vs %d/%v/%d",
			res6.Qualifying, res6.Sum, res6.Cycles, ref6.Qualifying, ref6.Sum, ref6.Cycles)
	}
	di, err := tpch.Generate(tpch.Config{Lineitems: 30000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	qi, err := exec.Q6(di)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q6.OpNames(), qi.OpNames()) {
		t.Errorf("q6Plan op names %v, exec.Q6 %v", q6.OpNames(), qi.OpNames())
	}

	cutoff := di.ShipdateCutoff(0.3)
	qs, resS := facade(func(e *Engine, d *Dataset) (*Query, error) {
		return e.Compile(d, q6ShipdatePlan(d.ShipdateCutoff(0.3)))
	})
	refS := oracle(func(d *tpch.Dataset) (*exec.Query, error) { return exec.Q6Shipdate(d, cutoff) })
	if resS.Qualifying != refS.Qualifying || resS.Sum != refS.Sum || resS.Cycles != refS.Cycles {
		t.Errorf("q6ShipdatePlan diverges from exec.Q6Shipdate: %d/%v/%d vs %d/%v/%d",
			resS.Qualifying, resS.Sum, resS.Cycles, refS.Qualifying, refS.Sum, refS.Cycles)
	}
	qsi, err := exec.Q6Shipdate(di, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(qs.OpNames(), qsi.OpNames()) {
		t.Errorf("q6ShipdatePlan op names %v, exec.Q6Shipdate %v", qs.OpNames(), qsi.OpNames())
	}
}

// TestGroupByGroundTruth checks a grouped Exec against a plain Go
// recomputation from the raw columns — an oracle independent of any engine
// code path. Sums must match bit for bit: the engine accumulates per key in
// global row order, exactly like the loop below.
func TestGroupByGroundTruth(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(20000, 23, OrderRandom)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, Scan("lineitem").
			Filter("l_discount", CmpGE, 0.05).
			GroupBy("l_quantity", "l_extendedprice"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		disc := d.d.Lineitem.Column("l_discount").F64()
		qty := d.d.Lineitem.Column("l_quantity").I64()
		price := d.d.Lineitem.Column("l_extendedprice").F64()
		sums := make(map[int64]float64)
		counts := make(map[int64]int64)
		for row := range disc {
			if disc[row] >= 0.05 {
				sums[qty[row]] += price[row]
				counts[qty[row]]++
			}
		}
		if len(res.Groups) != len(sums) {
			t.Fatalf("workers=%d: %d groups, ground truth %d", workers, len(res.Groups), len(sums))
		}
		for _, g := range res.Groups {
			if g.Sum != sums[g.Key] || g.Count != counts[g.Key] {
				t.Errorf("workers=%d: group %d = %v/%d, ground truth %v/%d",
					workers, g.Key, g.Sum, g.Count, sums[g.Key], counts[g.Key])
			}
		}
	}
}

// servedEquivCase builds a fresh engine + data set and returns the plan the
// served-vs-Exec comparisons run: three worst-first predicates (so adaptive
// modes reorder) plus an optional aggregate.
func servedEquivSetup(t *testing.T, workers int) (*Engine, *Dataset, *Plan) {
	t.Helper()
	e, err := New(Config{VectorSize: 512, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.GenerateTPCH(64*512, 37, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	p := Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).Label("ship80").
		Filter("l_discount", CmpLE, 0.05).Label("disc<=.05").
		Filter("l_quantity", CmpLT, 10).Label("qty<10").
		Sum("l_extendedprice * l_discount")
	return e, d, p
}

// TestEquivalenceServed pins the service satellite: a query submitted
// through Server.Submit to an otherwise idle server returns bit-identical
// results, cycles, PMU counters and optimizer stats to the same query run via
// Engine.Exec, in every mode at Workers 1 and 4: both drive it with the same
// step on a pool of the same size.
func TestEquivalenceServed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				opts := ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}}
				eOld, dOld, pOld := servedEquivSetup(t, workers)
				qOld, err := eOld.Compile(dOld, pOld)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eOld.Exec(qOld, opts)
				if err != nil {
					t.Fatal(err)
				}
				eNew, dNew, pNew := servedEquivSetup(t, workers)
				srv, err := NewServer(eNew, ServerConfig{})
				if err != nil {
					t.Fatal(err)
				}
				tk, err := srv.Submit(dNew, pNew, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if got.Served == nil || got.Served.PlanCacheHit || got.Served.WarmStart {
					t.Fatalf("first served run has wrong provenance: %+v", got.Served)
				}
				if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
					t.Errorf("answers diverge: %d/%v vs %d/%v",
						got.Qualifying, got.Sum, want.Qualifying, want.Sum)
				}
				sameResult(t, "served", want.Result, got.Result)
				sameStats(t, "served", want.Stats, got.Stats)
				if want.Impl != got.Impl {
					t.Errorf("impl stats diverge: %+v vs %+v", want.Impl, got.Impl)
				}
			})
		}
	}
}

// TestEquivalenceServedGrouped: grouped plans served exclusively are
// bit-identical to Engine.Exec at Workers 1 and 4, groups included.
func TestEquivalenceServedGrouped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			plan := func() *Plan {
				return Scan("lineitem").
					Filter("l_discount", CmpGE, 0.05).
					GroupBy("l_quantity", "l_extendedprice")
			}
			eOld, dOld, _ := servedEquivSetup(t, workers)
			qOld, err := eOld.Compile(dOld, plan())
			if err != nil {
				t.Fatal(err)
			}
			want, err := eOld.Exec(qOld, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			eNew, dNew, _ := servedEquivSetup(t, workers)
			srv, err := NewServer(eNew, ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tk, err := srv.Submit(dNew, plan(), ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "served-grouped", want.Result, got.Result)
			if !reflect.DeepEqual(want.Groups, got.Groups) {
				t.Errorf("groups diverge:\n old %v\n new %v", want.Groups, got.Groups)
			}
		})
	}
}

// TestEquivalenceServedSorted extends the served equivalence to ordered
// plans: a sorted/Top-K query submitted to an otherwise idle server returns
// bit-identical ordered rows to Engine.Exec in every mode at Workers 1 and
// 4, and — where the served protocol matches the dedicated drivers (always
// at Workers 4; ModeFixed at Workers 1) — identical cycles and PMU counters
// including the coordinator's merge-and-emit phase.
func TestEquivalenceServedSorted(t *testing.T) {
	plan := func(d *Dataset) *Plan {
		return Scan("lineitem").
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).Label("ship80").
			Filter("l_discount", CmpLE, 0.05).Label("disc<=.05").
			OrderBy("l_extendedprice", Desc).
			Limit(25).
			Sum("l_extendedprice * l_discount")
	}
	for _, workers := range []int{1, 4} {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				opts := ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}}
				eOld, dOld, _ := servedEquivSetup(t, workers)
				qOld, err := eOld.Compile(dOld, plan(dOld))
				if err != nil {
					t.Fatal(err)
				}
				want, err := eOld.Exec(qOld, opts)
				if err != nil {
					t.Fatal(err)
				}
				eNew, dNew, _ := servedEquivSetup(t, workers)
				srv, err := NewServer(eNew, ServerConfig{})
				if err != nil {
					t.Fatal(err)
				}
				tk, err := srv.Submit(dNew, plan(dNew), opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) != 25 {
					t.Fatalf("expected 25 ordered rows, got %d", len(want.Rows))
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Errorf("ordered rows diverge:\n exec   %+v\n served %+v", want.Rows[:2], got.Rows[:2])
				}
				if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
					t.Errorf("answers diverge: %d/%v vs %d/%v",
						got.Qualifying, got.Sum, want.Qualifying, want.Sum)
				}
				if workers > 1 || mode == ModeFixed {
					sameResult(t, "served-sorted", want.Result, got.Result)
				}
			})
		}
	}
}
