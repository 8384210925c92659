package exec

import (
	"runtime"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// runBlock executes vectors [vecLo, vecHi) over the whole pool from zero
// clocks on the pool's own block-run context.
func runBlock(p *Parallel, q *Query, vecLo, vecHi int, impl ScanImpl, sum *float64) (BlockResult, error) {
	cores, clocks := p.fullCores()
	return p.run.RunBlockSubset(q, vecLo, vecHi, cores, clocks, impl, sum)
}

func parallelFixture(t *testing.T) (*tpch.Dataset, *Query) {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: 50000, Seed: 2})
	q, err := Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestParallelMatchesSerial: the morsel-driven executor produces bit-
// identical Qualifying and Sum to a serial run for every worker count, and
// because scheduling runs on simulated clocks, repeated runs reproduce the
// cycle counts exactly.
func TestParallelMatchesSerial(t *testing.T) {
	_, q := parallelFixture(t)
	serialEng := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	serial, err := serialEng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		var prevCycles uint64
		for rep := 0; rep < 2; rep++ {
			p, err := NewParallel(cpu.ScaledXeon(), workers, 1024)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Qualifying != serial.Qualifying {
				t.Errorf("workers=%d: qualifying %d, serial %d", workers, res.Qualifying, serial.Qualifying)
			}
			if res.Sum != serial.Sum { // bit-identical reduction
				t.Errorf("workers=%d: sum %v, serial %v", workers, res.Sum, serial.Sum)
			}
			if res.Vectors != serial.Vectors {
				t.Errorf("workers=%d: vectors %d, serial %d", workers, res.Vectors, serial.Vectors)
			}
			if rep == 1 && res.Cycles != prevCycles {
				t.Errorf("workers=%d: nondeterministic makespan %d vs %d", workers, res.Cycles, prevCycles)
			}
			prevCycles = res.Cycles
		}
	}
}

// TestParallelSpeedup: the makespan shrinks with added cores on a morsel-
// decomposable scan.
func TestParallelSpeedup(t *testing.T) {
	_, q := parallelFixture(t)
	makespan := func(workers int) uint64 {
		p, err := NewParallel(cpu.ScaledXeon(), workers, 1024)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	one, four := makespan(1), makespan(4)
	if speedup := float64(one) / float64(four); speedup < 2.5 {
		t.Errorf("4-core speedup %.2f, want >= 2.5 (1 core: %d cycles, 4 cores: %d)", speedup, one, four)
	}
}

// TestParallelLoadBalance: the simulated-clock scheduler keeps per-core work
// within a morsel of each other.
func TestParallelLoadBalance(t *testing.T) {
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	br, err := runBlock(p, q, 0, p.NumVectors(q), ImplBranching, nil)
	if err != nil {
		t.Fatal(err)
	}
	var min uint64 = ^uint64(0)
	for _, c := range br.WorkerCycles {
		if c < min {
			min = c
		}
	}
	if float64(br.MaxCycles) > 1.25*float64(min) {
		t.Errorf("imbalanced workers: %v", br.WorkerCycles)
	}
}

// TestParallelBlockValidation pins RunBlock's range checking.
func TestParallelBlockValidation(t *testing.T) {
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	nv := p.NumVectors(q)
	if _, err := runBlock(p, q, -1, nv, ImplBranching, nil); err == nil {
		t.Error("negative block start accepted")
	}
	if _, err := runBlock(p, q, 0, nv+1, ImplBranching, nil); err == nil {
		t.Error("block beyond table accepted")
	}
	if _, err := runBlock(p, q, 3, 2, ImplBranching, nil); err == nil {
		t.Error("inverted block accepted")
	}
	if _, err := NewParallel(cpu.ScaledXeon(), 0, 1024); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewParallel(cpu.ScaledXeon(), 2, 0); err == nil {
		t.Error("zero vector size accepted")
	}
}

// failingJoinQuery builds lineitem→orders with an aggregate, over a private
// data set whose foreign keys the caller may corrupt.
func failingJoinQuery(t *testing.T) (*tpch.Dataset, *Query) {
	t.Helper()
	d := tpch.MustGenerate(tpch.Config{Lineitems: 16 * 512, Seed: 11})
	c := cpu.MustNew(cpu.ScaledXeon())
	j, err := NewFKJoin(c, d.Lineitem.Column("l_orderkey"), d.NumOrders, nil, "join-orders")
	if err != nil {
		t.Fatal(err)
	}
	price := d.Lineitem.Column("l_extendedprice")
	q := &Query{
		Table: d.Lineitem,
		Ops:   []Op{j},
		Agg:   &Aggregate{Cols: []*columnar.Column{price}, F: func(row int) float64 { return price.F64()[row] }},
	}
	if err := MustEngine(c, 512).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestParallelFailurePaths: a morsel that panics (an out-of-range foreign
// key) or errors surfaces exactly as under the serial scheduler, whatever
// overlapped on the host — the lowest-numbered failed morsel wins, the
// morsels before it are reduced (the external accumulator holds their sum)
// and none after it, every running morsel is drained before the failure
// propagates, and the executor is usable afterwards.
func TestParallelFailurePaths(t *testing.T) {
	d, q := failingJoinQuery(t)
	keys := d.Lineitem.Column("l_orderkey").I64()
	// Two bad keys in different morsels; the serial scheduler trips over the
	// one in morsel 5 and never sees the one in morsel 9.
	saved5, saved9 := keys[5*512+17], keys[9*512+3]
	keys[5*512+17], keys[9*512+3] = int64(d.NumOrders)+55, int64(d.NumOrders)+99

	type outcome struct {
		panicked any
		sum      float64
	}
	run := func(p *Parallel) (o outcome) {
		defer func() { o.panicked = recover() }()
		p.Cold()
		_, err := runBlock(p, q, 0, p.NumVectors(q), ImplBranching, &o.sum)
		t.Errorf("block over a corrupt key returned (err %v) instead of panicking", err)
		return o
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serialPool, err := NewParallel(cpu.ScaledXeon(), 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := run(serialPool)
	if want.panicked != keyRangeError(int64(d.NumOrders)+55, int64(d.NumOrders)) {
		t.Fatalf("serial scheduler surfaced %v, want morsel 5's key error", want.panicked)
	}
	if want.sum == 0 {
		t.Fatal("serial scheduler reduced nothing before the failure")
	}
	for _, gmp := range []int{2, 4} {
		runtime.GOMAXPROCS(gmp)
		p, err := NewParallel(cpu.ScaledXeon(), 4, 512)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			if got := run(p); got != want {
				t.Fatalf("gomaxprocs=%d rep %d: surfaced %+v, serial scheduler %+v", gmp, rep, got, want)
			}
		}
		// An error every morsel raises: the block returns it, reduces nothing,
		// and leaves no morsel running.
		sum := 0.0
		if _, err := runBlock(p, q, 0, p.NumVectors(q), ImplBranchFree, &sum); err == nil || sum != 0 {
			t.Fatalf("gomaxprocs=%d: branch-free join returned err %v, sum %v", gmp, err, sum)
		}
		// Same executor, keys repaired: it must still give the serial answer.
		keys[5*512+17], keys[9*512+3] = saved5, saved9
		p.Cold()
		got, err := p.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		serialPool.Cold()
		ref, err := serialPool.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Qualifying != ref.Qualifying || got.Sum != ref.Sum || got.Cycles != ref.Cycles {
			t.Fatalf("gomaxprocs=%d: after the failures %+v, fresh serial run %+v", gmp, got, ref)
		}
		keys[5*512+17], keys[9*512+3] = int64(d.NumOrders)+55, int64(d.NumOrders)+99
		p.Close()
	}
}

// TestRunSegmentsPanicLowestIndexWins: closures run on whichever workers are
// free, yet the panic that surfaces is the lowest slice index's, after every
// closure has finished.
func TestRunSegmentsPanicLowestIndexWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p, err := NewParallel(cpu.ScaledXeon(), 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for rep := 0; rep < 20; rep++ {
		var ran [4]bool
		fns := make([]func(), 4)
		for i := range fns {
			fns[i] = func() {
				ran[i] = true
				if i == 1 || i == 3 {
					panic(i)
				}
			}
		}
		func() {
			defer func() {
				if pv := recover(); pv != 1 {
					t.Fatalf("surfaced panic %v, want closure 1's", pv)
				}
			}()
			p.RunSegments(fns)
		}()
		if ran != [4]bool{true, true, true, true} {
			t.Fatalf("closures ran %v before the panic surfaced", ran)
		}
	}
}
