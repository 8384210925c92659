package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// driveOnce runs spec to completion on a new pool of one core of e's and
// returns the run.
func driveOnce(t *testing.T, e *exec.Engine, spec Spec) *Run {
	t.Helper()
	r := NewRun(poolOfOne(t, e))
	if err := r.Begin(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEnumeratedMatchesFixed: the enumerator-driven mode is the progressive
// loop with exact evidence. From Q6's worst order it answers what the fixed
// order answers, reorders, and charges nothing for sampling: the instrumented
// steps are its cost.
func TestEnumeratedMatchesFixed(t *testing.T) {
	d := progDataset(t, 60000).ReorderLineitem(tpch.OrderingRandom, 41)
	q, _ := worstOrderQ6(t, d)
	e := progEngine(t)
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	fixed := driveOnce(t, e, Spec{Query: q})
	got := driveOnce(t, e, Spec{Query: q, Mode: ModeEnumerated, Opt: Options{ReopInterval: 5}})
	if got.Qualifying != fixed.Qualifying || math.Float64bits(got.Sum) != math.Float64bits(fixed.Sum) {
		t.Errorf("enumerated run answers %d rows, sum %v; fixed order %d, %v", got.Qualifying, got.Sum, fixed.Qualifying, fixed.Sum)
	}
	st := got.Stats()
	if st.Reorders == 0 {
		t.Error("enumerated run never reordered the worst order")
	}
	if st.EstimatorEvaluations != 0 || st.SampleCycles != 0 {
		t.Errorf("%d estimator evaluations, %d sample cycles; want none", st.EstimatorEvaluations, st.SampleCycles)
	}
}

// TestEnumeratedOrdersExactly: on independent predicates of one width the
// rank order is ascending true selectivity, and exact counts find it from the
// worst order. (Q6's two shipdate and two discount bounds are correlated: the
// counted conditional selectivities rightly order them otherwise.)
func TestEnumeratedOrdersExactly(t *testing.T) {
	e, q := explorationQuery(t, 60000)
	worst, err := q.WithOrder([]int{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	sels := make([]float64, len(worst.Ops))
	for i, op := range worst.Ops {
		sels[i] = op.(*exec.Predicate).TrueSelectivity()
	}
	st := driveOnce(t, e, Spec{Query: worst, Mode: ModeEnumerated, Opt: Options{ReopInterval: 5}}).Stats()
	if want := AscendingOrder(sels); !slices.Equal(st.FinalOrder, want) {
		t.Errorf("final order %v, want %v (ascending true selectivity %v)", st.FinalOrder, want, sels)
	}

	// From the best order nothing moves, and every point ranks by the counts
	// of its own vector alone: the fifth, the tenth, and so on.
	st = driveOnce(t, e, Spec{Query: q, Mode: ModeEnumerated, Opt: Options{ReopInterval: 5}}).Stats()
	if st.Reorders != 0 || len(st.Samples) < 2 {
		t.Fatalf("%d reorders, %d points from the best order; want 0 and at least 2", st.Reorders, len(st.Samples))
	}
	vs := e.VectorSize()
	for k, smp := range st.Samples {
		lo := (5*(k+1) - 1) * vs
		oc := &exec.OpCounts{Evaluated: make([]int64, len(q.Ops)), Passed: make([]int64, len(q.Ops))}
		if _, err := e.RunVectorInstrumented(q, lo, lo+vs, oc); err != nil {
			t.Fatal(err)
		}
		if want := oc.Selectivities(); !slices.Equal(smp.Sels, want) {
			t.Errorf("point %d ranks by %v, its vector counts %v", k, smp.Sels, want)
		}
	}
}

// TestEnumeratedIsHostParallelInvariant: on a pool of four cores every block
// but the last runs instrumented, on as many host threads as there are. An
// optimization point ranks by the counts of all the block's cores, and the
// result, the stepper's telemetry and the trace bytes must not depend on how
// many host threads there are.
func TestEnumeratedIsHostParallelInvariant(t *testing.T) {
	d := progDataset(t, 40000).ReorderLineitem(tpch.OrderingRandom, 41)
	q, _ := worstOrderQ6(t, d)
	// A pool per run: trace events carry the cores' clocks, which a cold
	// start leaves where they were.
	run := func(procs int) (exec.Result, Stats, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := exec.NewParallel(cpu.ScaledXeon(), 4, 512)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.Engines()[0].BindQuery(q); err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		cores := make([]*trace.Track, p.Workers())
		for i := range cores {
			cores[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
		}
		p.SetTrace(cores)
		r := NewRun(p)
		if err := r.Begin(Spec{Query: q, Mode: ModeEnumerated, Opt: Options{ReopInterval: 2, Trace: rec.NewTrack("optimizer")}}); err != nil {
			t.Fatal(err)
		}
		if err := r.Drive(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return r.Result, r.Stats(), buf.Bytes()
	}
	res1, st1, tr1 := run(1)
	res4, st4, tr4 := run(4)
	if st1.Optimizations == 0 {
		t.Fatal("no optimization point: nothing ran instrumented")
	}
	// The first point's evidence is the whole first block's, all four cores'
	// counts: 4 cores × ReopInterval 2 vectors of 512 rows.
	e := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 512)
	oc := &exec.OpCounts{Evaluated: make([]int64, len(q.Ops)), Passed: make([]int64, len(q.Ops))}
	if _, err := e.RunVectorInstrumented(q, 0, 4*2*512, oc); err != nil {
		t.Fatal(err)
	}
	if want := oc.Selectivities(); !slices.Equal(st1.Samples[0].Sels, want) {
		t.Errorf("first point's selectivities %v, counted over its block %v", st1.Samples[0].Sels, want)
	}
	if !reflect.DeepEqual(res1, res4) {
		t.Errorf("result at GOMAXPROCS 4 %+v, at 1 %+v", res4, res1)
	}
	if !reflect.DeepEqual(st1, st4) {
		t.Errorf("stats at GOMAXPROCS 4 %+v, at 1 %+v", st4, st1)
	}
	if !bytes.Equal(tr1, tr4) {
		t.Errorf("trace bytes differ: %d at GOMAXPROCS 1, %d at 4", len(tr1), len(tr4))
	}
}
