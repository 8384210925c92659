package progopt

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// The host-parallel scheduler executes simulated cores on real goroutines,
// so the determinism contract gets its own matrix: for a fixed (Workers,
// mode) cell, results, cycles, optimizer stats, and every PMU counter must
// be bit-identical whatever the number of host threads, and whether the
// batch kernels run fused or per-operator. Fused vs unfused is the oracle
// relation of the kernel fusion; GOMAXPROCS 1 vs N is the oracle relation of
// the lookahead scheduler (at GOMAXPROCS 1 the driver runs every morsel
// itself, in order — the serial scheduler — so matching it proves that
// overlapping morsels on the host introduces no scheduling-order
// dependence). The cells with fewer host threads than simulated cores
// (GOMAXPROCS 2 × Workers 4 or 8) are the ones where workers are not tied to
// cores and assignments wait on published clocks. Run with -race to also
// check the scheduler for data races while it reproduces the reference bit
// patterns.

// detWorkers and detProcs span the matrix; Workers 1 never leaves the inline
// path and anchors it.
var (
	detWorkers = []int{1, 2, 4, 8}
	detProcs   = []int{1, 2, 4, 8}
)

// detRun executes the three-predicate aggregate plan on a fresh engine in
// the given configuration. It also returns how many L1 misses helper threads
// simulated (Engine.helperLines).
func detRun(t *testing.T, workers int, mode Mode, noFuse bool) (ExecResult, uint64) {
	t.Helper()
	e, err := newRef(Config{VectorSize: 1024, Workers: workers}, refPath{noFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_discount", CmpLE, 0.05).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	return res, e.helperLines()
}

// staged reports whether a pool of the given size stages its cores at the
// given GOMAXPROCS: whether the host can give every simulated core a second
// thread for its cache levels below L1 (exec.Parallel).
func staged(workers, procs int) bool { return 2*workers <= procs }

// The cells where the host gives every simulated core a second thread
// (staged) run each core's cache levels below L1 on a helper thread of its
// own, and compare that with the inline reference; checkStaged requires
// helpers to have simulated lines there.
func TestDeterminismMatrix(t *testing.T) {
	helped := map[[2]int]uint64{}
	for _, workers := range detWorkers {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			// Reference: serial host (the driver alone), fused kernels.
			prev := runtime.GOMAXPROCS(1)
			ref, _ := detRun(t, workers, mode, false)
			runtime.GOMAXPROCS(prev)
			if ref.Qualifying == 0 {
				t.Fatalf("workers=%d/%s: reference selected nothing", workers, mode)
			}
			for _, gmp := range detProcs {
				for _, noFuse := range []bool{false, true} {
					name := fmt.Sprintf("workers=%d/%s/gomaxprocs=%d/nofuse=%v", workers, mode, gmp, noFuse)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
						got, lines := detRun(t, workers, mode, noFuse)
						helped[[2]int{workers, gmp}] += lines
						sameResult(t, name, ref.Result, got.Result)
						sameStats(t, name, ref.Stats, got.Stats)
						if ref.Impl != got.Impl {
							t.Errorf("impl stats diverge: ref %+v got %+v", ref.Impl, got.Impl)
						}
					})
				}
			}
		}
	}
	checkStaged(t, helped)
}

// checkStaged requires helper threads to have simulated no line in a cell
// whose cores are not staged, and some in the staged cells together. A
// helper parked by the runtime may take milliseconds to start, longer than
// one cell's run on its fresh engine, so no single staged cell must have
// engaged (TestStagedCoresMatchInline in internal/core requires each of its
// pools to).
func checkStaged(t *testing.T, helped map[[2]int]uint64) {
	t.Helper()
	var total uint64
	for cell, lines := range helped {
		if staged(cell[0], cell[1]) {
			total += lines
		} else if lines != 0 {
			t.Errorf("workers=%d/gomaxprocs=%d: helpers simulated %d lines, but the cores are not staged", cell[0], cell[1], lines)
		}
	}
	if total == 0 {
		t.Error("no helper simulated a line in any staged cell: the staged path went untested")
	}
}

// detServe runs the same plan through a workload server (its own core pool,
// block-granular scheduling) in the given configuration.
func detServe(t *testing.T, workers int, noFuse bool) ExecResult {
	t.Helper()
	e, err := newRef(Config{VectorSize: 1024, Workers: workers}, refPath{noFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24*1024, 37, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_discount", CmpLE, 0.05).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount"),
		ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismMatrixServed extends the matrix to the served path: the
// server's pool must also be indifferent to host parallelism and fusion.
func TestDeterminismMatrixServed(t *testing.T) {
	for _, workers := range detWorkers {
		prev := runtime.GOMAXPROCS(1)
		ref := detServe(t, workers, false)
		runtime.GOMAXPROCS(prev)
		for _, gmp := range detProcs {
			for _, noFuse := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/gomaxprocs=%d/nofuse=%v", workers, gmp, noFuse)
				t.Run(name, func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
					got := detServe(t, workers, noFuse)
					sameResult(t, name, ref.Result, got.Result)
					sameStats(t, name, ref.Stats, got.Stats)
				})
			}
		}
	}
}

// TestDeterminismMatrixShapes extends the matrix to the execution shapes
// whose reduction is more than a sum: grouped aggregation (per-morsel
// survivor vectors folded in row order, then the partial-table merge),
// ordered output (per-core collectors fed in each core's morsel order), and
// a stored scan whose zone maps skip vectors in zero simulated cycles (a
// skipped morsel's lower bound is its entry clock, so nothing is certified
// past it until it completes).
// Everything Exec returns must match the GOMAXPROCS=1 run, staged cells
// included (see TestDeterminismMatrix); a stored scan's cores stay inline.
func TestDeterminismMatrixShapes(t *testing.T) {
	shapes := []struct {
		name  string
		cfg   Config
		order Ordering
		mode  Mode
		plan  func(d *Dataset) *Plan
	}{
		{"grouped", Config{VectorSize: 512}, OrderRandom, ModeFixed, func(*Dataset) *Plan {
			return Scan("lineitem").Filter("l_discount", CmpGE, 0.05).GroupBy("l_quantity", "l_extendedprice")
		}},
		{"sorted", Config{VectorSize: 512}, OrderRandom, ModeProgressive, func(d *Dataset) *Plan { return sortTestPlan(d, 40) }},
		{"stored-skips", Config{VectorSize: 512, Storage: &StorageConfig{
			BlockRows: 1024, LatencyCycles: 300, BytesPerCycle: 16, ResidentBytes: 64 << 10, SkipScan: true,
		}}, OrderNatural, ModeProgressive, func(*Dataset) *Plan { return storedQ6Plan() }},
	}
	helped := map[[2]int]uint64{}
	for _, sh := range shapes {
		run := func(t *testing.T, workers int) ExecResult {
			t.Helper()
			cfg := sh.cfg
			cfg.Workers = workers
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d, err := e.GenerateTPCH(30_000, 21, sh.order)
			if err != nil {
				t.Fatal(err)
			}
			q, err := e.Compile(d, sh.plan(d))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Exec(q, ExecOptions{Mode: sh.mode, Progressive: Progressive{Interval: 5}})
			if err != nil {
				t.Fatal(err)
			}
			if sh.cfg.Storage == nil {
				helped[[2]int{workers, runtime.GOMAXPROCS(0)}] += e.helperLines()
			} else if n := e.helperLines(); n != 0 {
				// A core with a storage tier stays inline: the tier's observer
				// reads the core's clock from inside the levels below L1.
				t.Errorf("helpers simulated %d lines of a stored scan", n)
			}
			return res
		}
		for _, workers := range detWorkers {
			prev := runtime.GOMAXPROCS(1)
			ref := run(t, workers)
			runtime.GOMAXPROCS(prev)
			if ref.Qualifying == 0 {
				t.Fatalf("%s/workers=%d: reference selected nothing", sh.name, workers)
			}
			if sh.cfg.Storage != nil && ref.Storage.VectorsSkipped == 0 {
				t.Fatalf("%s: no vector was skipped; the zero-duration case is not exercised", sh.name)
			}
			for _, gmp := range detProcs[1:] {
				t.Run(fmt.Sprintf("%s/workers=%d/gomaxprocs=%d", sh.name, workers, gmp), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
					if got := run(t, workers); !reflect.DeepEqual(ref, got) {
						t.Errorf("diverges from the GOMAXPROCS=1 run:\n ref %+v\n got %+v", ref, got)
					}
				})
			}
		}
	}
	checkStaged(t, helped)
}
