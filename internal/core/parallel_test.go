package core

import (
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

func parallelProgFixture(t *testing.T) *exec.Query {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: 60000, Seed: 4})
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	// Worst-ish initial order: reversed.
	qo, err := q.WithOrder([]int{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	return qo
}

// TestParallelProgressiveMatchesSerialResults: re-optimizing from merged
// per-core counters never changes query results, for any worker count.
func TestParallelProgressiveMatchesSerialResults(t *testing.T) {
	q := parallelProgFixture(t)
	serialEng := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	serial, _, err := runAdaptive(poolOfOne(t, serialEng), q, Options{ReopInterval: 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		p, err := exec.NewParallel(cpu.ScaledXeon(), workers, 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := runAdaptive(p, q, Options{ReopInterval: 10}, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Qualifying != serial.Qualifying || res.Sum != serial.Sum {
			t.Errorf("workers=%d: results %d/%v, serial %d/%v",
				workers, res.Qualifying, res.Sum, serial.Qualifying, serial.Sum)
		}
		if st.Workers != workers {
			t.Errorf("stats workers = %d, want %d", st.Workers, workers)
		}
		if st.Blocks == 0 || st.Vectors != res.Vectors {
			t.Errorf("stats blocks=%d vectors=%d (result vectors %d)", st.Blocks, st.Vectors, res.Vectors)
		}
	}
}

// TestParallelProgressiveReoptimizes: merged counters drive real reorders
// away from the worst initial PEO, and the adapted run beats the fixed-order
// parallel baseline.
func TestParallelProgressiveReoptimizes(t *testing.T) {
	q := parallelProgFixture(t)
	p, err := exec.NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := exec.NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	prog, st, err := runAdaptive(p2, q, Options{ReopInterval: 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Optimizations == 0 {
		t.Error("no optimization cycles ran")
	}
	if st.Reorders == 0 {
		t.Error("worst-order query never reordered")
	}
	if prog.Cycles >= base.Cycles {
		t.Errorf("parallel progressive %d cycles did not beat fixed worst order %d", prog.Cycles, base.Cycles)
	}
}
