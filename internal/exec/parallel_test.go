package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"progopt/internal/columnar"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// runBlock executes vectors [vecLo, vecHi) over the whole pool from zero
// clocks on the pool's own block-run context.
func runBlock(p *Parallel, q *Query, vecLo, vecHi int, impl ScanImpl, sum *float64) (BlockResult, error) {
	return p.run.RunBlock(q, vecLo, vecHi, p.zeroClocks(), impl, sum)
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
	var sum float64
	br, err := runBlock(p, q, 0, p.NumVectors(q), ImplBranching, &sum)
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
	var sum float64
	if _, err := runBlock(p, q, -1, nv, ImplBranching, &sum); err == nil {
		t.Error("negative block start accepted")
	}
	if _, err := runBlock(p, q, 0, nv+1, ImplBranching, &sum); err == nil {
		t.Error("block beyond table accepted")
	}
	if _, err := runBlock(p, q, 3, 2, ImplBranching, &sum); err == nil {
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

// TestCloseStopsLingeringHelpers: back-to-back blocks share one job, and
// helpers linger between them, yet every block returns what the first did.
// Close stops the helpers mid-linger, and a block after it starts a fresh
// pool.
func TestCloseStopsLingeringHelpers(t *testing.T) {
	_, q := parallelFixture(t)
	for _, gmp := range []int{2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			baseline := runtime.NumGoroutine()
			p, err := NewParallel(cpu.ScaledXeon(), 4, 1024)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			var want BlockResult
			for k := range 200 {
				p.Cold()
				got, err := runBlock(p, q, 0, 8, ImplBranching, &sum)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					want = got
					want.WorkerCycles = nil
				}
				if got.Qualifying != want.Qualifying || got.Vectors != want.Vectors || got.MaxCycles != want.MaxCycles {
					t.Fatalf("block %d %+v, first %+v", k, got, want)
				}
			}
			p.Close() // the helpers are lingering after the block
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 1 s after Close, %d before the pool started", runtime.NumGoroutine(), baseline)
				}
			}
			got, err := runBlock(p, q, 0, 8, ImplBranching, &sum)
			if err != nil {
				t.Fatal(err)
			}
			if p.pool.Load() == nil {
				t.Fatal("a block after Close started no pool")
			}
			if got.Qualifying != want.Qualifying || got.Vectors != want.Vectors {
				t.Fatalf("block after Close %+v, before %+v", got, want)
			}
			p.Close()
		})
	}
}

// TestPooledHandOffsAllocateNothing: once warm, a block that invites helpers
// allocates nothing. testing.AllocsPerRun measures at
// GOMAXPROCS 1, where neither invites a helper, so this counts the process's
// mallocs at GOMAXPROCS 2 instead. Those include the runtime's own
// allocations, which host scheduling decides: a goroutine's timer on its first
// sleep (waiter.pause), a waiting record when a lock parks, a new OS thread.
// They come in rare bursts of a few, so the 500 calls are five windows of 100
// and the quietest window must allocate at most once; one allocation per call
// or per morsel is 100 or more in every window. Race instrumentation may
// allocate too: CI runs this test without -race. The pool of one core stages
// its core at GOMAXPROCS 2 (cache.Hierarchy.Stage): its block steps one vector at a
// time, as an adaptive query's do, with the lower levels on a helper.
func TestPooledHandOffsAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, q := parallelFixture(t)
	p, err := NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	one, err := NewParallel(cpu.ScaledXeon(), 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	v := 0
	sum := 0.0
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"8-vector block on four cores", func() {
			if _, err := runBlock(p, q, 0, 8, ImplBranching, &sum); err != nil {
				t.Fatal(err)
			}
		}},
		{"1-vector block on a staged core", func() {
			if _, err := runBlock(one, q, v, v+1, ImplBranching, &sum); err != nil {
				t.Fatal(err)
			}
			v = (v + 1) % one.NumVectors(q)
		}},
	} {
		for range 50 { // start the pool, grow the scratch
			c.run()
		}
		const windows, calls = 5, 100
		fewest := uint64(math.MaxUint64)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range calls {
				c.run()
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		if fewest > 1 {
			t.Errorf("%s: at least %d allocations in each of %d windows of %d calls, want 0 per call", c.name, fewest, windows, calls)
		}
	}
	if one.Engines()[0].CPU().Hierarchy().HelperLines() == 0 {
		t.Error("no helper simulated a line of the one-core pool: its core was never staged")
	}
}
