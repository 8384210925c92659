package core

import (
	"reflect"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/exec"
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

// TestSpecStorage: a stored query's stream is the run's like its sort states.
// Every core's morsels of a step are dispatched to the one stream, Drive
// colds it so a repeated run is exact, and the last step adds its shift on
// top of the cycles the same run takes without a tier, leaving every counter
// as that run's.

func TestSpecStorage(t *testing.T) {
	const rows, vs, workers = 32 * 512, 512, 4
	q, plan := storedQ6(t, rows, vs)
	p, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	r := NewRun(p)
	newStream := func() *exec.Stream {
		s, err := plan.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("step moves the run's stream", func(t *testing.T) {
		s := newStream()
		p.Cold()
		if err := r.Begin(Spec{Query: q, Storage: s, Quantum: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(make([]uint64, workers)); err != nil {
			t.Fatal(err)
		}
		// A step of two vectors per core dispatches eight vectors: the units
		// of their blocks (1024-row blocks of 512-row vectors), four columns.
		if c := s.Counters(); c.BlockFetches != 4*4 || c.BlockHits != 4*4 {
			t.Fatalf("a step of 2 vectors on %d cores left the stream at %+v, want 16 fetches and 16 hits", workers, c)
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

			spec.Storage = newStream()
			drive := func() (exec.Result, exec.StreamCounters) {
				if err := r.Begin(spec); err != nil {
					t.Fatal(err)
				}
				if err := r.Drive(); err != nil {
					t.Fatal(err)
				}
				return r.Result, spec.Storage.Counters()
			}
			first, firstTier := drive()
			second, secondTier := drive()
			if !reflect.DeepEqual(first, second) || firstTier != secondTier {
				t.Fatalf("second Drive differs:\n%+v %+v\n%+v %+v", first, firstTier, second, secondTier)
			}
			stall := firstTier.StallCycles
			if stall == 0 {
				t.Fatal("the tier charged no stall; the comparison is vacuous")
			}
			want := plain
			want.Cycles += stall
			want.Millis = p.Engines()[0].CPU().MillisOf(want.Cycles)
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("stored run %+v, want the tierless run plus the stream's stall %d: %+v", first, stall, want)
			}
		})
	}
}
