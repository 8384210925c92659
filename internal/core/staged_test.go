package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// stagedRun is everything a run on a pool may show: the answer, the clock,
// the PMU, the optimizer's telemetry, every level's counters on every core
// and the trace bytes.
type stagedRun struct {
	Qualifying, Vectors int64
	SumBits             uint64
	Cycles              uint64
	Millis              float64
	Counters            any
	Stats               Stats
	Sorted, Groups      any
	Levels              []cache.Counters
	Trace               []byte
	// helped is how many L1 misses helper threads simulated: not an
	// observable, the proof that the run was staged.
	helped uint64
}

// stagedPool names a pool: a cell's inline reference and its staged run each
// get one, started at its GOMAXPROCS and reused for the cell's every shape, as
// an engine's pool is. Both pools see the same runs in the same order, so
// their clocks and cumulative counters must agree too.
type stagedPool struct {
	cell  string
	procs int
	fuse  bool
}

// runStaged drives spec to completion at the given GOMAXPROCS on the cell's
// pool for it, fused or not, with every core and the optimizer traced or
// none. An untraced one-core block reads its morsel clocks unsettled
// (exec.BlockRun.clock), a traced one settles them.
func runStaged(t *testing.T, pools map[stagedPool]*exec.Parallel, cell string, spec Spec, workers, vs, procs int, fuse, traced bool) stagedRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	key := stagedPool{cell, procs, fuse}
	p := pools[key]
	if p == nil {
		var err error
		if p, err = exec.NewParallel(cpu.ScaledXeon(), workers, vs); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		p.SetFuse(fuse)
		pools[key] = p
	}
	var helped0 uint64
	for _, e := range p.Engines() {
		helped0 += e.CPU().Hierarchy().HelperLines()
	}
	rec := trace.New()
	if traced {
		tracks := make([]*trace.Track, workers)
		for i := range tracks {
			tracks[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
		}
		p.SetTrace(tracks)
		spec.Opt.Trace = rec.NewTrack("optimizer")
	}
	r := NewRun(p)
	if err := r.Begin(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(); err != nil {
		t.Fatal(err)
	}
	out := stagedRun{
		Qualifying: r.Qualifying, Vectors: int64(r.Vectors), SumBits: math.Float64bits(r.Sum),
		Cycles: r.Cycles, Millis: r.Millis, Counters: r.Counters, Stats: r.Stats(),
		Sorted: r.Sorted, Groups: r.Groups,
	}
	for _, e := range p.Engines() {
		h := e.CPU().Hierarchy()
		out.Levels = append(out.Levels, h.Counters())
		out.helped += h.HelperLines()
	}
	out.helped -= helped0
	p.SetTrace(nil)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out.Trace = buf.Bytes()
	return out
}

// TestStagedCoresMatchInline: a pool whose cores simulate the levels below
// L1 on a second host thread (cache.Hierarchy.Stage) shows exactly what the
// same pool shows inline. Every query shape of the driver — the four modes,
// the branch-free and instrumented scans, ordered, grouped and join queries —
// runs fused and unfused, traced and not, on one-core pools at GOMAXPROCS 2
// and 4 and on a two-core pool at GOMAXPROCS 4, where blocks are shared by
// morsel helpers and stage helpers at once, and must match the GOMAXPROCS 1
// run, where no core is staged, in every simulated observable and in the
// trace bytes. Each staged pool must have had lines simulated by a helper,
// so the comparison is not vacuous. A core with a storage tier stays inline
// at any GOMAXPROCS.
func TestStagedCoresMatchInline(t *testing.T) {
	const rows, vs = 32 * 512, 512
	cases := append(driveCases(t, rows, vs), joinCases(t, rows, vs)...)
	pools := map[stagedPool]*exec.Parallel{}
	for _, shape := range []struct{ workers, procs int }{{1, 2}, {1, 4}, {2, 4}} {
		var helped uint64
		for _, fuse := range []bool{true, false} {
			for _, tc := range cases {
				// One spec for all runs: they share the sort regions and hash
				// tables, as repeated runs of one compiled query do.
				spec := tc.spec(shape.workers)
				cell := fmt.Sprintf("workers=%d/gomaxprocs=%d", shape.workers, shape.procs)
				for _, traced := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/fuse=%v/traced=%v", tc.name, cell, fuse, traced)
					want := runStaged(t, pools, cell, spec, shape.workers, vs, 1, fuse, traced)
					got := runStaged(t, pools, cell, spec, shape.workers, vs, shape.procs, fuse, traced)
					if want.helped != 0 {
						t.Fatalf("%s: %d lines helped at GOMAXPROCS 1", name, want.helped)
					}
					if !reflect.DeepEqual(withHelped(want, got.helped), got) {
						t.Errorf("%s: staged run differs from the inline one (same trace: %v):\n got %+v\nwant %+v",
							name, bytes.Equal(got.Trace, want.Trace), brief(got), brief(want))
					}
					helped += got.helped
				}
			}
		}
		t.Logf("workers=%d/gomaxprocs=%d: helpers simulated %d lines", shape.workers, shape.procs, helped)
		if helped == 0 {
			t.Errorf("workers=%d/gomaxprocs=%d: no helper simulated a line; no run was staged", shape.workers, shape.procs)
		}
	}

	t.Run("stored core stays inline", func(t *testing.T) {
		q, plan := storedQ6(t, rows, vs)
		spec := func() Spec {
			s, err := plan.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			return Spec{Query: q, Storage: s, Mode: ModeProgressive, Opt: Options{ReopInterval: 2}}
		}
		want := runStaged(t, pools, "stored", spec(), 1, vs, 1, true, true)
		got := runStaged(t, pools, "stored", spec(), 1, vs, 2, true, true)
		if got.helped != 0 {
			t.Errorf("a stored core had %d lines simulated by a helper", got.helped)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("stored run at GOMAXPROCS 2 differs:\n got %+v\nwant %+v", brief(got), brief(want))
		}
	})
}

// joinCases puts a foreign-key join to orders in front of Q6's predicates:
// the gathered loads into a build side (LoadAddrs) of a join graph's edge.
func joinCases(t *testing.T, rows, vs int) []driveCase {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: rows, Seed: 11})
	q6, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	binder := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
	join, err := exec.NewFKJoin(binder.CPU(), d.Lineitem.Column("l_orderkey"), d.NumOrders, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	q := &exec.Query{Table: d.Lineitem, Ops: append([]exec.Op{join}, q6.Ops...), Agg: q6.Agg}
	if err := binder.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return []driveCase{
		{"join", func(int) Spec { return Spec{Query: q} }},
		{"join/progressive", func(int) Spec { return Spec{Query: q, Mode: ModeProgressive, Opt: Options{ReopInterval: 2}} }},
	}
}

// withHelped returns r with its helper count replaced.
func withHelped(r stagedRun, helped uint64) stagedRun {
	r.helped = helped
	return r
}

// brief is a run without its trace bytes, for failure messages.
func brief(r stagedRun) stagedRun {
	r.Trace = nil
	return r
}
