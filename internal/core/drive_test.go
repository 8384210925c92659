package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// driveCase is one query shape of the driver matrix; spec builds it for a
// pool of the given size (per-core sort states and group tables).
type driveCase struct {
	name string
	spec func(workers int) Spec
}

// driveCases binds Q6, started at its reversed order, and returns the shapes
// the driver runs: the four modes, the fixed order in the two other scans, an
// ordered query on the fixed-order and on the adaptive path, and a grouped
// aggregation.
func driveCases(t *testing.T, rows, vs int) []driveCase {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: rows, Seed: 11})
	q6, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	// One binder for the columns, the sort regions and the hash tables: every
	// core of every pool below shares its address space.
	binder := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
	if err := binder.BindQuery(q6); err != nil {
		t.Fatal(err)
	}
	q, err := q6.WithOrder([]int{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	li := d.Lineitem
	sorts := func(workers, limit int) []*exec.Sort {
		out := make([]*exec.Sort, workers)
		for i := range out {
			keys := []exec.SortKey{{Col: li.Column("l_extendedprice"), Desc: true}}
			if out[i], err = exec.NewSort(binder.CPU(), keys, limit, q.Agg, rows, vs); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	groups := func(workers int) []*exec.GroupBy {
		out := make([]*exec.GroupBy, workers)
		for i := range out {
			if out[i], err = exec.NewGroupBy(binder.CPU(), li.Column("l_quantity"), li.Column("l_extendedprice"), exec.KeyDomain{Groups: 50}); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	opt := Options{ReopInterval: 2}
	return []driveCase{
		{"fixed", func(int) Spec { return Spec{Query: q} }},
		{"fixed/branch-free", func(int) Spec { return Spec{Query: q, Impl: exec.ImplBranchFree} }},
		{"fixed/instrumented", func(int) Spec { return Spec{Query: q, Impl: exec.ImplInstrumented} }},
		{"progressive", func(int) Spec { return Spec{Query: q, Mode: ModeProgressive, Opt: opt} }},
		{"micro-adaptive", func(int) Spec { return Spec{Query: q, Mode: ModeMicroAdaptive, Opt: opt} }},
		{"enumerated", func(int) Spec { return Spec{Query: q, Mode: ModeEnumerated, Opt: opt} }},
		{"top-k", func(w int) Spec { return Spec{Query: q, Sorts: sorts(w, 10)} }},
		{"sorted-progressive", func(w int) Spec {
			return Spec{Query: q, Mode: ModeProgressive, Opt: opt, Sorts: sorts(w, -1)}
		}},
		{"grouped", func(w int) Spec { return Spec{Query: q, Groups: groups(w)} }},
	}
}

// sameAnswer holds a run's output against the reference's: what may never
// depend on how the run was cut into steps or which cores ran them.
func sameAnswer(t *testing.T, what string, got, want *Run) {
	t.Helper()
	if got.Qualifying != want.Qualifying || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) || got.Vectors != want.Vectors {
		t.Errorf("%s: %d qualifying, sum %v, %d vectors; want %d, %v, %d",
			what, got.Qualifying, got.Sum, got.Vectors, want.Qualifying, want.Sum, want.Vectors)
	}
	if !reflect.DeepEqual(got.Sorted, want.Sorted) {
		t.Errorf("%s: %d sorted rows differ from the reference's %d", what, len(got.Sorted), len(want.Sorted))
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Errorf("%s: %d groups differ from the reference's %d", what, len(got.Groups), len(want.Groups))
	}
}

// TestStepMatchesDrive is the driver's own equivalence matrix, where the
// dedicated runners and the served segment runners used to be compared:
// every query shape × Workers {1, 2, 4}, run (a) to completion on the full
// pool from zero clocks, (b) in quanta from a later, even clock — every
// simulated observable must match (a) — and (c) in quanta entered at unequal
// clocks — the answer must match (a), whatever the schedule cost, and no
// step moves a clock back. The grouped shape goes through (b) and (c) like
// the others: its accumulator is the run's, so it is cut into quanta, and the
// merge runs on every core of the last step. At one worker an adaptive step
// is a vector.
func TestStepMatchesDrive(t *testing.T) {
	const rows, vs = 64*512 - 100, 512
	cases := driveCases(t, rows, vs)
	// One pool per size for the whole matrix: Drive is a cold start, and who
	// steps a run itself colds the cores first, so no run sees the ones before.
	pools := map[int]*exec.Parallel{}
	begin := func(workers int, spec Spec) *Run {
		p := pools[workers]
		if p == nil {
			var err error
			if p, err = exec.NewParallel(cpu.ScaledXeon(), workers, vs); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			pools[workers] = p
		}
		p.Cold()
		r := NewRun(p)
		if err := r.Begin(spec); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			// One spec for all runs of the cell: they share the sort regions and
			// hash tables, as repeated runs of one compiled query do.
			spec := tc.spec(workers)
			ref := begin(workers, spec)
			if err := ref.Drive(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ref.Qualifying == 0 || ref.Vectors != 64 {
				t.Fatalf("%s: reference qualified %d tuples over %d vectors", name, ref.Qualifying, ref.Vectors)
			}
			if ref.Stepper() != nil && ref.Stats().Optimizations == 0 {
				t.Fatalf("%s: the adaptive reference never reached an optimization point", name)
			}

			// (b) three morsels per core and step, from an even clock.
			spec.Quantum = 3
			even := begin(workers, spec)
			const t0 = 5000
			clocks := make([]uint64, workers)
			fill(clocks, t0)
			steps := 0
			for done := false; !done; steps++ {
				var err error
				if done, err = even.Step(clocks); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			sameAnswer(t, name+" in quanta", even, ref)
			if even.Cycles != ref.Cycles || even.Counters != ref.Counters || even.Millis != ref.Millis {
				t.Errorf("%s in quanta: %d cycles, reference %d; counters equal: %v",
					name, even.Cycles, ref.Cycles, even.Counters == ref.Counters)
			}
			if even.Start != t0 || slices.Max(clocks) != t0+ref.Cycles {
				t.Errorf("%s in quanta: started at %d, clocks %v; want %d and a latest clock of %d",
					name, even.Start, clocks, t0, t0+ref.Cycles)
			}
			if steps < 4 {
				t.Errorf("%s in quanta: %d steps, the run was not cut", name, steps)
			}
			if !reflect.DeepEqual(even.Stats(), ref.Stats()) {
				t.Errorf("%s in quanta: stepper stats\n got %+v\nwant %+v", name, even.Stats(), ref.Stats())
			}

			// (c) entered at unequal clocks, the lowest core latest.
			uneven := begin(workers, spec)
			for w := range clocks {
				clocks[w] = uint64(1000 * (workers - w))
			}
			prev := slices.Clone(clocks)
			for i, done := 0, false; !done; i++ {
				var err error
				if done, err = uneven.Step(clocks); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for w, cl := range clocks {
					if cl < prev[w] {
						t.Fatalf("%s: step %d moved core %d's clock back, %d to %d", name, i, w, prev[w], cl)
					}
				}
				copy(prev, clocks)
			}
			sameAnswer(t, name+" from unequal clocks", uneven, ref)

		}
	}
}

// TestWindowedStepsAreHostIndependent: on four cores an adaptive step decides
// on the core its window completed on, and ends where the decision takes
// effect, so every core leaves it at or after the decision's time. Result,
// stepper stats, the step count and the trace bytes — every core's morsels
// and the optimizer's decisions — are the same at GOMAXPROCS 1, 2 and 4.
func TestWindowedStepsAreHostIndependent(t *testing.T) {
	const rows, vs, workers = 64*512 - 100, 512, 4
	for _, tc := range driveCases(t, rows, vs) {
		spec := tc.spec(workers)
		if spec.Mode == ModeFixed {
			continue
		}
		var ref *Run
		var refTrace []byte
		var refSteps int
		for _, procs := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/gomaxprocs=%d", tc.name, procs)
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				p := newPool(t, workers, vs)
				rec, _ := traceCores(p)
				spec.Opt.Trace = rec.NewTrack("optimizer")
				r := NewRun(p)
				if err := r.Begin(spec); err != nil {
					t.Fatal(err)
				}
				clocks := make([]uint64, workers)
				steps := 0
				for done := false; !done; steps++ {
					var err error
					if done, err = r.Step(clocks); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !done && slices.Min(clocks) < r.mark {
						t.Fatalf("%s: step %d left clocks %v, below its decision at %d on core %d", name, steps, clocks, r.mark, r.coord)
					}
				}
				if r.Stats().Optimizations == 0 || steps < 3 {
					t.Fatalf("%s: %d steps, %d optimization points", name, steps, r.Stats().Optimizations)
				}
				var buf bytes.Buffer
				if err := rec.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref, refTrace, refSteps = r, buf.Bytes(), steps
					return
				}
				sameAnswer(t, name, r, ref)
				if r.Result != ref.Result || !reflect.DeepEqual(r.Stats(), ref.Stats()) || steps != refSteps {
					t.Errorf("%s: %+v in %d steps, GOMAXPROCS 1 gave %+v in %d", name, r.Result, steps, ref.Result, refSteps)
				}
				if !bytes.Equal(buf.Bytes(), refTrace) {
					t.Errorf("%s: trace bytes differ from GOMAXPROCS 1's", name)
				}
			}()
		}
	}
}

// TestSpecValidate: the driver refuses what it could not run, before any core
// is touched.
func TestSpecValidate(t *testing.T) {
	cases := driveCases(t, 4*512, 512)
	spec := func(name string, workers int) Spec {
		for _, tc := range cases {
			if tc.name == name {
				return tc.spec(workers)
			}
		}
		t.Fatalf("no case %q", name)
		return Spec{}
	}
	both := spec("grouped", 2)
	both.Sorts = spec("top-k", 2).Sorts
	adaptiveGrouped := spec("grouped", 2)
	adaptiveGrouped.Mode = ModeProgressive
	enumeratedGrouped := spec("grouped", 2)
	enumeratedGrouped.Mode = ModeEnumerated
	enumeratedSorted := spec("top-k", 2)
	enumeratedSorted.Mode = ModeEnumerated
	branchFreeGrouped := spec("grouped", 2)
	branchFreeGrouped.Impl = exec.ImplBranchFree
	instrumentedSorted := spec("top-k", 2)
	instrumentedSorted.Impl = exec.ImplInstrumented
	fixed := spec("fixed", 2)
	d := tpch.MustGenerate(tpch.Config{Lineitems: 100, Seed: 1})
	join, err := exec.NewFKJoin(cpu.MustNew(cpu.ScaledXeon()), d.Lineitem.Column("l_orderkey"), d.NumOrders, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Spec{
		"no query":                {},
		"unknown mode":            {Query: spec("fixed", 2).Query, Mode: 7},
		"no operators":            {Query: &exec.Query{Table: spec("fixed", 2).Query.Table}},
		"adaptive grouped":        adaptiveGrouped,
		"enumerated grouped":      enumeratedGrouped,
		"enumerated sorted":       enumeratedSorted,
		"grouped and sorted":      both,
		"tables for 4 cores":      spec("grouped", 4),
		"sort states for one":     spec("top-k", 1),
		"branch-free progressive": {Query: fixed.Query, Mode: ModeProgressive, Impl: exec.ImplBranchFree},
		"instrumented enumerated": {Query: fixed.Query, Mode: ModeEnumerated, Impl: exec.ImplInstrumented},
		"branch-free grouped":     branchFreeGrouped,
		"instrumented sorted":     instrumentedSorted,
		"branch-free join":        {Query: &exec.Query{Table: d.Lineitem, Ops: []exec.Op{join}}, Impl: exec.ImplBranchFree},
		"unknown scan":            {Query: fixed.Query, Impl: 9},
	} {
		if err := s.Validate(2); err == nil {
			t.Errorf("%s: accepted for a 2-core pool", name)
		}
	}
	for _, tc := range cases {
		s := tc.spec(2)
		if err := s.Validate(2); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestFixedImplIsTheVectorLoop: a fixed-order run in each scan on a pool of
// one core is that scan's vector loop on a fresh engine — the same answer,
// cycles, PMU counts and explicit counters — and Workers 4 gives the same
// answer.
func TestFixedImplIsTheVectorLoop(t *testing.T) {
	const rows, vs = 16*512 - 100, 512
	for _, tc := range driveCases(t, rows, vs) {
		spec := tc.spec(1)
		if spec.Mode != ModeFixed || spec.Groups != nil || spec.Sorts != nil {
			continue
		}
		q := spec.Query
		e := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
		oc := exec.OpCounts{Evaluated: make([]int64, len(q.Ops)), Passed: make([]int64, len(q.Ops))}
		e.SetOpCounts(&oc)
		var want exec.Result
		s0, c0 := e.CPU().Sample(), e.CPU().Cycles()
		for lo := 0; lo < rows; lo += vs {
			vr, err := e.RunVectorImpl(q, lo, min(lo+vs, rows), spec.Impl)
			if err != nil {
				t.Fatal(err)
			}
			want.Qualifying += vr.Qualifying
			want.Sum += vr.Sum
		}
		want.Cycles, want.Counters = e.CPU().Cycles()-c0, e.CPU().Sample().Sub(s0)

		for _, workers := range []int{1, 4} {
			p, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			r := NewRun(p)
			if err := r.Begin(spec); err != nil {
				t.Fatal(err)
			}
			if err := r.Drive(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			if r.Qualifying != want.Qualifying || math.Float64bits(r.Sum) != math.Float64bits(want.Sum) {
				t.Errorf("%s: %d qualifying, sum %v; the vector loop %d, %v", name, r.Qualifying, r.Sum, want.Qualifying, want.Sum)
			}
			if workers > 1 {
				continue
			}
			if r.Cycles != want.Cycles || r.Counters != want.Counters {
				t.Errorf("%s: %d cycles, the vector loop %d; counters equal: %v", name, r.Cycles, want.Cycles, r.Counters == want.Counters)
			}
			if spec.Impl == exec.ImplInstrumented && !reflect.DeepEqual(r.counts[0], oc) {
				t.Errorf("%s: explicit counts %+v, the vector loop %+v", name, r.counts[0], oc)
			}
		}
	}
}

// TestOneCoreBlocks: a one-core adaptive run steps a point alone, a
// validating vector alone, and the vectors between as one block. Its
// stepper reads a block only as a cost, the yardstick of a validation — the
// point's, or, for a zone-map-skipped point, the last vector before it that
// was not skipped — so that vector runs alone too. Checked on random skip
// verdicts against that rule, vector by vector.
func TestOneCoreBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := 0
	for trial := 0; trial < 500; trial++ {
		numVec, every := 1+rng.Intn(40), 1+rng.Intn(6)
		skip := make([]bool, numVec)
		for v := range skip {
			skip[v] = rng.Intn(3) == 0
		}
		point := func(v int) bool { return (v+1)%every == 0 && v+1 < numVec }
		yardstick := func(u int) bool {
			if skip[u] {
				return false
			}
			for p := u + 1; p < numVec; p++ {
				if point(p) {
					return skip[p]
				}
				if !skip[p] {
					return false
				}
			}
			return false
		}
		r := &Run{numVec: numVec, step: &BlockStepper{}, spec: Spec{Storage: []*exec.StorageScan{{Skip: skip}}}}
		for r.cursor < numVec {
			pending := rng.Intn(4) == 0
			r.step.pendingValidation = pending
			v1 := r.oneCoreBlock(every)
			if v1 <= r.cursor || v1 > numVec {
				t.Fatalf("trial %d: block [%d,%d) of %d vectors", trial, r.cursor, v1, numVec)
			}
			for v := r.cursor; v < v1 && v1-r.cursor > 1; v++ {
				if point(v) || pending || yardstick(v) {
					t.Fatalf("trial %d (every %d, skip %v, pending %v): block [%d,%d) holds vector %d, which runs alone",
						trial, every, skip, pending, r.cursor, v1, v)
				}
			}
			if v1-r.cursor > 1 {
				blocks++
			}
			r.cursor = v1
		}
	}
	if blocks == 0 {
		t.Fatal("no two vectors ever ran as one block")
	}
}
