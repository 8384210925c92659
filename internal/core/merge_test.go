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
// partial tables on every core of its subset, each owning a contiguous range
// of the keys (exec.BlockRun.FinalizeGroups). On subsets of 2, 4 and 7 cores
// of an eight-core pool, entered at unequal clocks:
//   - the barrier starts at the latest clock of the scan, its makespan is the
//     largest owner's merge, and every clock of the subset leaves at the
//     barrier plus that makespan;
//   - the query's counters are everything its cores counted: the scan's delta
//     plus every owner's;
//   - each owner records at most one group-merge span, on its own track, and
//     no core outside the subset records one.
//
// Then the groups are bit-identical at Workers {1, 2, 4, 7, 65} × GOMAXPROCS
// {1, 2, 4}, and a pool's trace bytes do not depend on GOMAXPROCS.
func TestPartitionedMergeBarrier(t *testing.T) {
	const rows, vs, workers = 20000, 128, 8
	q, groups := mergeFixture(t, rows, vs)
	p := newPool(t, workers, vs)
	samples := func(cores []int) []pmu.Sample {
		out := make([]pmu.Sample, len(cores))
		for i, w := range cores {
			out[i] = p.Engines()[w].CPU().Sample()
		}
		return out
	}
	for _, cores := range [][]int{{2, 5}, {0, 3, 4, 7}, {0, 1, 2, 3, 4, 5, 7}} {
		name := fmt.Sprintf("subset %v", cores)
		_, tracks := traceCores(p)
		p.Cold()
		r := NewRun(p)
		if err := r.Begin(Spec{Query: q, Groups: groups(workers), Quantum: 3}); err != nil {
			t.Fatal(err)
		}
		clocks := make([]uint64, len(cores))
		for i := range clocks {
			clocks[i] = uint64(700 * (len(cores) - i))
		}
		first := samples(cores)
		var entry []uint64
		var last []pmu.Sample
		for done := false; !done; {
			entry, last = slices.Clone(clocks), samples(cores)
			var err error
			if done, err = r.Step(cores, clocks); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}

		// Each owner's merge is its group-merge span.
		merge := make([]uint64, len(cores))
		for w, tr := range tracks {
			i := slices.Index(cores, w)
			spans := 0
			for _, ev := range tr.Events() {
				if ev.Name != "group-merge" {
					continue
				}
				if spans++; i < 0 {
					t.Errorf("%s: core %d outside the subset recorded a group-merge span", name, w)
				} else {
					merge[i] = ev.End - ev.Start
				}
			}
			if spans > 1 {
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
		for i, s := range samples(cores) {
			barrier = max(barrier, entry[i]+s.Sub(last[i]).Get(pmu.Cycles)-merge[i])
		}
		end := barrier + slices.Max(merge)
		for i, cl := range clocks {
			if cl != end {
				t.Errorf("%s: core %d left at %d, want the barrier %d plus the largest merge %d = %d",
					name, cores[i], cl, barrier, slices.Max(merge), end)
			}
		}
		if r.Cycles != end-r.Start {
			t.Errorf("%s: %d cycles from %d, want %d", name, r.Cycles, r.Start, end-r.Start)
		}
		var counted pmu.Sample
		for i, s := range samples(cores) {
			counted = counted.Add(s.Sub(first[i]))
		}
		if r.Counters != counted {
			t.Errorf("%s: counters\n got %v\nwant %v (everything the subset counted)", name, r.Counters, counted)
		}
	}
	p.SetTrace(nil)

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
