package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// mergeFixture binds a half-selective lineitem scan grouped on l_partkey (a
// dense domain of 667 keys at this scale) and returns it with a builder of
// per-core group tables, all allocated by one binder so every pool shares the
// address layout.
func mergeFixture(t *testing.T, rows, vs int) (*exec.Query, func(workers int) []*exec.GroupBy) {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: rows, Seed: 31})
	li := d.Lineitem
	q := &exec.Query{Table: li, Ops: []exec.Op{&exec.Predicate{Col: li.Column("l_discount"), Op: exec.GE, F: 0.04}}}
	binder := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
	if err := binder.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	dom, err := exec.ScanKeyDomain(li.Column("l_partkey"))
	if err != nil {
		t.Fatal(err)
	}
	return q, func(workers int) []*exec.GroupBy {
		gs := make([]*exec.GroupBy, workers)
		for i := range gs {
			if gs[i], err = exec.NewGroupBy(binder.CPU(), li.Column("l_partkey"), li.Column("l_extendedprice"), dom); err != nil {
				t.Fatal(err)
			}
		}
		return gs
	}
}

// newPool returns a pool of the given size.
func newPool(t *testing.T, workers, vs int) *exec.Parallel {
	t.Helper()
	p, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// traceCores gives every core of p a track of a new recorder.
func traceCores(p *exec.Parallel) (*trace.Recorder, []*trace.Track) {
	rec := trace.New()
	tracks := make([]*trace.Track, p.Workers())
	for i := range tracks {
		tracks[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
	}
	p.SetTrace(tracks)
	return rec, tracks
}

// TestPartitionedMergeBarrier: the last step of a grouped query merges the
// partial tables on every core of the pool, each owning a contiguous range of
// the keys (exec.BlockRun.FinalizeGroups). On pools of 2, 4 and 7 cores,
// entered at unequal clocks:
//   - the barrier starts at the latest clock of the scan, its makespan is the
//     largest owner's merge, and every clock leaves at the barrier plus that
//     makespan;
//   - the query's counters are everything its cores counted: the scan's delta
//     plus every owner's;
//   - each owner records exactly one group-merge span, on its own track.
//
// Then the groups are bit-identical at Workers {1, 2, 4, 7, 65} × GOMAXPROCS
// {1, 2, 4}, and a pool's trace bytes do not depend on GOMAXPROCS.
func TestPartitionedMergeBarrier(t *testing.T) {
	const rows, vs = 20000, 128
	q, groups := mergeFixture(t, rows, vs)
	for _, workers := range []int{2, 4, 7} {
		name := fmt.Sprintf("workers=%d", workers)
		p := newPool(t, workers, vs)
		samples := func() []pmu.Sample {
			out := make([]pmu.Sample, workers)
			for w, e := range p.Engines() {
				out[w] = e.CPU().Sample()
			}
			return out
		}
		_, tracks := traceCores(p)
		r := NewRun(p)
		if err := r.Begin(Spec{Query: q, Groups: groups(workers), Quantum: 3}); err != nil {
			t.Fatal(err)
		}
		clocks := make([]uint64, workers)
		for w := range clocks {
			clocks[w] = uint64(700 * (workers - w))
		}
		first := samples()
		var entry []uint64
		var last []pmu.Sample
		for done := false; !done; {
			entry, last = slices.Clone(clocks), samples()
			var err error
			if done, err = r.Step(clocks); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}

		// Each owner's merge is its group-merge span.
		merge := make([]uint64, workers)
		for w, tr := range tracks {
			spans := 0
			for _, ev := range tr.Events() {
				if ev.Name == "group-merge" {
					spans++
					merge[w] = ev.End - ev.Start
				}
			}
			if spans != 1 {
				t.Errorf("%s: core %d recorded %d group-merge spans", name, w, spans)
			}
		}
		if slices.Contains(merge, 0) {
			t.Fatalf("%s: owner merges %v: some owner merged nothing", name, merge)
		}
		// A fixed-order step moves a core's clock by its morsels' cycles, so
		// the scan leaves core i at its entry plus its last step's cycles less
		// its merge; the barrier starts at the latest.
		var barrier uint64
		for w, s := range samples() {
			barrier = max(barrier, entry[w]+s.Sub(last[w]).Get(pmu.Cycles)-merge[w])
		}
		end := barrier + slices.Max(merge)
		for w, cl := range clocks {
			if cl != end {
				t.Errorf("%s: core %d left at %d, want the barrier %d plus the largest merge %d = %d",
					name, w, cl, barrier, slices.Max(merge), end)
			}
		}
		if r.Cycles != end-r.Start {
			t.Errorf("%s: %d cycles from %d, want %d", name, r.Cycles, r.Start, end-r.Start)
		}
		var counted pmu.Sample
		for w, s := range samples() {
			counted = counted.Add(s.Sub(first[w]))
		}
		if r.Counters != counted {
			t.Errorf("%s: counters\n got %v\nwant %v (everything the pool counted)", name, r.Counters, counted)
		}
	}

	// The answer and the trace, across pool sizes and host threads.
	var want []exec.Group
	for _, w := range []int{1, 2, 4, 7, 65} {
		spec := Spec{Query: q, Groups: groups(w)}
		var ref exec.Result
		var refTrace []byte
		for _, procs := range []int{1, 2, 4} {
			name := fmt.Sprintf("workers=%d/gomaxprocs=%d", w, procs)
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				pool := newPool(t, w, vs)
				rec, _ := traceCores(pool)
				r := NewRun(pool)
				if err := r.Begin(spec); err != nil {
					t.Fatal(err)
				}
				if err := r.Drive(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var buf bytes.Buffer
				if err := rec.WriteChrome(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					if len(r.Groups) == 0 {
						t.Fatal("no groups")
					}
					want = r.Groups
				}
				if !reflect.DeepEqual(r.Groups, want) {
					t.Errorf("%s: %d groups differ from one core's %d", name, len(r.Groups), len(want))
				}
				if refTrace == nil {
					ref, refTrace = r.Result, buf.Bytes()
					if !bytes.Contains(refTrace, []byte(`"group-merge"`)) && w > 1 {
						t.Errorf("%s: the trace holds no group-merge span", name)
					}
				} else {
					if r.Result != ref {
						t.Errorf("%s: result %+v, GOMAXPROCS 1 gave %+v", name, r.Result, ref)
					}
					if !bytes.Equal(buf.Bytes(), refTrace) {
						t.Errorf("%s: trace bytes differ from GOMAXPROCS 1's", name)
					}
				}
			}()
		}
	}
}
