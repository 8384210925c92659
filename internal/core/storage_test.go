package core

import (
	"reflect"
	"slices"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/exec"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/cpu"
	"progopt/internal/storage"
	"progopt/internal/tpch"
)

// storedQ6 binds Q6 over a decoded PCOL v2 lineitem image and compiles its
// stored-scan plan under a tight resident-set budget.
func storedQ6(t *testing.T, rows, vs int) (*exec.Query, *storage.Plan) {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: rows, Seed: 5})
	enc, err := columnar.EncodeTable(d.Lineitem, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BindAll(cpu.MustNew(cpu.ScaledXeon())); err != nil {
		t.Fatal(err)
	}
	d.Lineitem = tab
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := storage.Compile(enc, tab, q, vs, storage.Config{LatencyCycles: 300, BytesPerCycle: 8, ResidentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return q, plan
}

func viewCounters(views []*exec.StorageScan) []cache.StorageCounters {
	out := make([]cache.StorageCounters, len(views))
	for i, v := range views {
		out[i] = v.Set.Counters()
	}
	return out
}

// TestSpecStorage: a stored query's views are the run's like its sort states.
// A step moves each core's own view, Drive colds them so a repeated run is
// exact, and the last step prices the slowest
// core's tier stall on top of the cycles the same run takes without a tier.
func TestSpecStorage(t *testing.T) {
	const rows, vs, workers = 32 * 512, 512, 4
	q, plan := storedQ6(t, rows, vs)
	p, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	r := NewRun(p)
	newViews := func() []*exec.StorageScan {
		views, err := plan.NewViews(workers)
		if err != nil {
			t.Fatal(err)
		}
		return views
	}

	t.Run("step moves its cores' views", func(t *testing.T) {
		views := newViews()
		p.Cold()
		if err := r.Begin(Spec{Query: q, Storage: views, Quantum: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(make([]uint64, workers)); err != nil {
			t.Fatal(err)
		}
		for w, c := range viewCounters(views) {
			if c.BlockFetches == 0 {
				t.Fatalf("step left core %d's view counters %+v; want every core's own view moved", w, c)
			}
		}
	})

	opt := Options{ReopInterval: 2}
	for _, spec := range []Spec{{Query: q}, {Query: q, Mode: ModeProgressive, Opt: opt}} {
		t.Run(spec.Mode.String(), func(t *testing.T) {
			if err := r.Begin(spec); err != nil {
				t.Fatal(err)
			}
			if err := r.Drive(); err != nil {
				t.Fatal(err)
			}
			plain := r.Result

			spec.Storage = newViews()
			drive := func() (exec.Result, []cache.StorageCounters) {
				if err := r.Begin(spec); err != nil {
					t.Fatal(err)
				}
				if err := r.Drive(); err != nil {
					t.Fatal(err)
				}
				return r.Result, viewCounters(spec.Storage)
			}
			first, firstViews := drive()
			second, secondViews := drive()
			if !reflect.DeepEqual(first, second) || !slices.Equal(firstViews, secondViews) {
				t.Fatalf("second Drive differs:\n%+v %+v\n%+v %+v", first, firstViews, second, secondViews)
			}
			var stall uint64
			for _, c := range firstViews {
				stall = max(stall, c.StallCycles)
			}
			if stall == 0 {
				t.Fatal("the tier charged no stall; the comparison is vacuous")
			}
			want := plain
			want.Cycles += stall
			want.Millis = p.Engines()[0].CPU().MillisOf(want.Cycles)
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("stored run %+v, want the tierless run plus the largest view stall %d: %+v", first, stall, want)
			}
		})
	}
}
