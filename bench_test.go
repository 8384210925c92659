package progopt

// One benchmark per figure of the paper's evaluation regenerates that
// figure's data (reduced scale; run cmd/progopt for full sweeps), plus
// ablation benches for the design decisions called out in DESIGN.md.
// Benchmarks report headline metrics via b.ReportMetric so `go test
// -bench=.` output doubles as a reproduction summary.

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"progopt/internal/core"
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/exec"
	"progopt/internal/experiments"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// benchCfg is the reduced-but-not-quick scale used by the figure benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		VectorSize: 1024,
		Lineitems:  150 * 1024,
		PermSample: 12,
		Seed:       1,
	}
}

func runFigure(b *testing.B, id string, metric func([]*experiments.Report) (float64, string)) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var reps []*experiments.Report
	for i := 0; i < b.N; i++ {
		reps, err = e.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		v, unit := metric(reps)
		b.ReportMetric(v, unit)
	}
}

// cellF parses a report cell as float.
func cellF(b *testing.B, r *experiments.Report, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func colOf(b *testing.B, r *experiments.Report, name string) int {
	b.Helper()
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	b.Fatalf("no column %q in %v", name, r.Columns)
	return -1
}

func BenchmarkFig01(b *testing.B) {
	runFigure(b, "fig01", func(reps []*experiments.Report) (float64, string) {
		r := reps[0]
		c := colOf(b, r, "worst_best_ratio")
		max := 0.0
		for i := range r.Rows {
			if v := cellF(b, r, i, c); v > max {
				max = v
			}
		}
		return max, "max_worst/best"
	})
}

func BenchmarkFig02(b *testing.B) {
	runFigure(b, "fig02", func(reps []*experiments.Report) (float64, string) {
		r := reps[0]
		c := colOf(b, r, "br_mp_pct")
		peak := 0.0
		for i := range r.Rows {
			if v := cellF(b, r, i, c); v > peak {
				peak = v
			}
		}
		return peak, "peak_mp_pct"
	})
}

func BenchmarkFig03(b *testing.B) {
	runFigure(b, "fig03", func(reps []*experiments.Report) (float64, string) {
		r := reps[2] // all mispredictions
		six, ivy := colOf(b, r, "6 States"), colOf(b, r, "Ivy Sample")
		maxErr := 0.0
		for i := range r.Rows {
			if d := math.Abs(cellF(b, r, i, six) - cellF(b, r, i, ivy)); d > maxErr {
				maxErr = d
			}
		}
		return maxErr, "max_err_pct"
	})
}

func BenchmarkFig04(b *testing.B) {
	runFigure(b, "fig04", func(reps []*experiments.Report) (float64, string) {
		// Worst measured/predicted ratio deviation from 1 over the grid.
		worst := 0.0
		r := reps[2]
		for i := range r.Rows {
			for j := 1; j < len(r.Columns); j++ {
				v, err := strconv.ParseFloat(r.Rows[i][j], 64)
				if err != nil {
					continue // "-" cells where prediction ~ 0
				}
				if d := math.Abs(v - 1); d > worst {
					worst = d
				}
			}
		}
		return worst, "max_ratio_dev"
	})
}

func BenchmarkFig06(b *testing.B) {
	runFigure(b, "fig06", func(reps []*experiments.Report) (float64, string) {
		// Relative error of the Markov estimate against the simulated Ivy
		// Bridge counts, averaged over the sweep (excluding ~zero rows).
		r := reps[0]
		ivy, est := colOf(b, r, "ivy-bridge"), colOf(b, r, "est_markov")
		sum, n := 0.0, 0
		for i := range r.Rows {
			m := cellF(b, r, i, ivy)
			if m < 100 {
				continue
			}
			sum += math.Abs(cellF(b, r, i, est)-m) / m
			n++
		}
		return sum / float64(n) * 100, "avg_rel_err_pct"
	})
}

func BenchmarkFig07(b *testing.B) { runFigure(b, "fig07", nil) }

func BenchmarkFig08(b *testing.B) { runFigure(b, "fig08", nil) }

func BenchmarkFig09(b *testing.B) { runFigure(b, "fig09", nil) }

func BenchmarkFig11(b *testing.B) {
	runFigure(b, "fig11", func(reps []*experiments.Report) (float64, string) {
		r := reps[0]
		base, opt := colOf(b, r, "base_ms"), colOf(b, r, "optimized_ms")
		last := len(r.Rows) - 1
		return cellF(b, r, last, base) / cellF(b, r, last, opt), "worst_peo_speedup"
	})
}

func BenchmarkFig12(b *testing.B) {
	runFigure(b, "fig12", func(reps []*experiments.Report) (float64, string) {
		// The paper's headline: progressive v. average baseline, best case
		// over the selectivity sweep.
		r := reps[0]
		avg, r10 := colOf(b, r, "avg_base_ms"), colOf(b, r, "avg_reopint_10_ms")
		best := 0.0
		for i := range r.Rows {
			if v := cellF(b, r, i, avg) / cellF(b, r, i, r10); v > best {
				best = v
			}
		}
		return best, "max_avg_speedup"
	})
}

func BenchmarkFig13(b *testing.B) {
	runFigure(b, "fig13", func(reps []*experiments.Report) (float64, string) {
		// Sorted data set, worst initial PEO, ReopInt 10 speedup.
		r := reps[0]
		base, r10 := colOf(b, r, "base_ms"), colOf(b, r, "reopint_10_ms")
		last := len(r.Rows) - 1
		return cellF(b, r, last, base) / cellF(b, r, last, r10), "sorted_worst_speedup"
	})
}

func BenchmarkFig14(b *testing.B) {
	runFigure(b, "fig14", func(reps []*experiments.Report) (float64, string) {
		// Break-even position: first sortedness level where selection-first
		// beats join-first (index into the window axis).
		r := reps[0]
		sel, join := colOf(b, r, "selection_first_ms"), colOf(b, r, "join_first_ms")
		for i := range r.Rows {
			if cellF(b, r, i, sel) < cellF(b, r, i, join) {
				return float64(i), "breakeven_idx"
			}
		}
		return float64(len(r.Rows)), "breakeven_idx"
	})
}

func BenchmarkFig15(b *testing.B) {
	runFigure(b, "fig15", func(reps []*experiments.Report) (float64, string) {
		// Minimum part-first/orders-first ratio; > 1 everywhere means orders
		// first always wins, as the paper reports.
		r := reps[0]
		of, pf := colOf(b, r, "orders_first_ms"), colOf(b, r, "part_first_ms")
		min := math.Inf(1)
		for i := range r.Rows {
			if v := cellF(b, r, i, pf) / cellF(b, r, i, of); v < min {
				min = v
			}
		}
		return min, "min_part/orders"
	})
}

func BenchmarkFig16(b *testing.B) {
	runFigure(b, "fig16", func(reps []*experiments.Report) (float64, string) {
		r := reps[0]
		en := colOf(b, r, "enumerator_overhead_pct")
		return cellF(b, r, len(r.Rows)-1, en), "enum_overhead_pct_10preds"
	})
}

func BenchmarkExtEnum(b *testing.B) {
	runFigure(b, "ext-enum", func(reps []*experiments.Report) (float64, string) {
		// Enumerator/PMU runtime ratio at the largest vector size: > 1 means
		// the PMU approach wins once its inversion cost amortizes.
		r := reps[0]
		c := colOf(b, r, "enum_vs_pmu")
		return cellF(b, r, len(r.Rows)-1, c), "enum/pmu_largest_vec"
	})
}

func BenchmarkExtMicro(b *testing.B) {
	runFigure(b, "ext-micro", func(reps []*experiments.Report) (float64, string) {
		// Adaptive runtime at 50% selectivity relative to pure branching:
		// < 1 means micro-adaptivity pays off where mispredictions peak.
		r := reps[0]
		br, ad := colOf(b, r, "branching_ms"), colOf(b, r, "adaptive_ms")
		mid := len(r.Rows) / 2
		return cellF(b, r, mid, ad) / cellF(b, r, mid, br), "adaptive/branching_mid"
	})
}

func BenchmarkExtStatic(b *testing.B) {
	runFigure(b, "ext-static", func(reps []*experiments.Report) (float64, string) {
		// Progressive speedup over the static plan built from the stale
		// 1%-prefix histogram.
		r := reps[0]
		st, pr := colOf(b, r, "static_ms"), colOf(b, r, "static+prog_ms")
		return cellF(b, r, 0, st) / cellF(b, r, 0, pr), "prog_vs_stale_static"
	})
}

// --- Execution-core benches: tuple-at-a-time v. batch kernels v. morsels ---

// benchQ6 builds a bound Q6 over a mid-sized data set shared by the
// execution-core benches.
func benchQ6(b *testing.B, rows int) *exec.Query {
	b.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	q, err := exec.Q6(d)
	if err != nil {
		b.Fatal(err)
	}
	if err := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024).BindQuery(q); err != nil {
		b.Fatal(err)
	}
	return q
}

// benchRunMode measures host wall-clock per full-table Q6 execution in the
// given engine mode; the simulated cycle count is reported alongside. This
// is the acceptance gauge of the batch-kernel refactor: identical simulated
// work, less interpretation overhead per tuple.
func benchRunMode(b *testing.B, scalar bool) {
	q := benchQ6(b, 200_000)
	e := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	e.SetScalar(scalar)
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := e.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunTupleAtATime is the seed engine's interpreted row loop.
func BenchmarkRunTupleAtATime(b *testing.B) { benchRunMode(b, true) }

// BenchmarkRunBatch is the batch-kernel pipeline over selection vectors.
func BenchmarkRunBatch(b *testing.B) { benchRunMode(b, false) }

// BenchmarkRunTopK is the order-aware hot path: a filtered Top-100 ordered
// scan through the public facade (bounded-heap collection per qualifying
// tuple plus the barrier merge and emission). Feeds the BENCH_perf.json
// sort row.
func BenchmarkRunTopK(b *testing.B) {
	e, err := New(Config{VectorSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	d, err := e.GenerateTPCH(200_000, 7, OrderNatural)
	if err != nil {
		b.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.6))).
		Filter("l_discount", CmpGE, 0.04).
		OrderBy("l_extendedprice", Desc).
		Limit(100).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// sameCycles returns iteration i's simulated cycles after checking them
// against the iterations before: Exec is a cold start, so a benchmark's
// sim_cycles is the same at any -benchtime.
func sameCycles(b *testing.B, i int, before, cycles uint64) uint64 {
	if i > 0 && cycles != before {
		b.Fatalf("iteration %d took %d simulated cycles, the ones before %d", i, cycles, before)
	}
	return cycles
}

// BenchmarkRunGroupBy is the grouped hot path: a half-selective scan grouped
// on l_partkey (33 334 keys) through the public facade on four simulated
// cores — per-core partial tables, direct-indexed since the key domain is
// dense, one host reduction visit per qualifying row, the key-ordered merge
// barrier with each core merging a quarter of the keys. sim_cycles pins the
// makespan, barrier included.
func BenchmarkRunGroupBy(b *testing.B) {
	e, err := New(Config{Workers: 4, VectorSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(1_000_000, 7, OrderNatural)
	if err != nil {
		b.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpGE, int64(d.ShipdateCutoff(0.5))).
		GroupBy("l_partkey", "l_extendedprice"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			b.Fatal(err)
		}
		cycles = sameCycles(b, i, cycles, res.Cycles)
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// benchJoinGraph measures a JoinOn join-graph query through the public
// facade under ModeFixed: compile resolves the edges, pushes the per-table
// filters down, and orders the probes with the statistics-free greedy
// orderer. sim_cycles is the deterministic simulated cost of the compiled
// order.
func benchJoinGraph(b *testing.B, nTables int) {
	e, err := New(Config{VectorSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	d, err := e.GenerateTPCH(200_000, 7, OrderNatural)
	if err != nil {
		b.Fatal(err)
	}
	p := Scan("lineitem").
		JoinOn("lineitem", "l_orderkey", "orders").
		Filter("o_orderdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_quantity", CmpLT, 30).
		Sum("l_extendedprice * l_discount")
	if nTables >= 4 {
		p = p.JoinOn("lineitem", "l_partkey", "part").
			JoinOn("orders", "o_custkey", "customer").
			Filter("p_size", CmpLE, 25).
			Filter("c_acctbal", CmpGE, 0.0)
	}
	q, err := e.Compile(d, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunJoinGraph2 is the 2-table graph (lineitem→orders with a
// pushed-down orders filter). Feeds the BENCH_perf.json join-graph rows.
func BenchmarkRunJoinGraph2(b *testing.B) { benchJoinGraph(b, 2) }

// BenchmarkRunJoinGraph4 is the 4-table star/snowflake (orders, part,
// customer via orders) with filters pushed to three tables.
func BenchmarkRunJoinGraph4(b *testing.B) { benchJoinGraph(b, 4) }

// BenchmarkRunJoinGraph4Progressive is the one tracked row that runs an
// adaptive mode on a join: the join_probe shape (four cores, random lineitem
// order, Interval 10), where greedy is the best order and progressive can
// only not lose. sim_speedup_vs_fixed is the fixed order's cycles over the
// progressive run's, the benchmark of record's headline on that workload.
func BenchmarkRunJoinGraph4Progressive(b *testing.B) {
	fixed, progressive := joinProbeShape(b, 7)
	fx := fixed()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = sameCycles(b, i, cycles, progressive().Cycles)
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
	b.ReportMetric(float64(fx.Cycles)/float64(cycles), "sim_speedup_vs_fixed")
}

// benchStored runs the Q6 scan over the stored (PCOL v2) lineitem through
// the public facade with the given storage configuration; sim_cycles is the
// stall-inclusive reported cycle count.
func benchStored(b *testing.B, st *StorageConfig) {
	e, err := New(Config{VectorSize: 1024, Storage: st})
	if err != nil {
		b.Fatal(err)
	}
	d, err := e.GenerateTPCH(200_000, 7, OrderNatural)
	if err != nil {
		b.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.6))).
		Filter("l_discount", CmpGE, 0.04).
		Filter("l_quantity", CmpLT, 24).
		Sum("l_extendedprice * l_discount"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkScanStored is the stored-table hot path: the Q6 scan over the
// PCOL v2 image with a priced block tier and zone-map skipping. Feeds the
// BENCH_perf.json stored row.
func BenchmarkScanStored(b *testing.B) {
	benchStored(b, &StorageConfig{LatencyCycles: 400, BytesPerCycle: 16, SkipScan: true})
}

// BenchmarkScanCompressed adds the packed-image predicate scan: the same
// stored Q6 with predicates priced over the compressed column images. Feeds
// the BENCH_perf.json compressed row.
func BenchmarkScanCompressed(b *testing.B) {
	benchStored(b, &StorageConfig{LatencyCycles: 400, BytesPerCycle: 16, SkipScan: true, CompressedScan: true})
}

// BenchmarkRunParallel is the batch pipeline under the morsel scheduler;
// sim_cycles is the 4-core makespan (the simulated speedup), while ns/op
// remains host time for simulating all four cores.
func BenchmarkRunParallel(b *testing.B) {
	q := benchQ6(b, 200_000)
	p, err := exec.NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkRunParallelTraced is BenchmarkRunParallel with the event recorder
// attached: same simulated work (sim_cycles must match BenchmarkRunParallel
// exactly — tracing is a pure observer), plus the host-side cost of recording
// every morsel span. The recorder is reset per iteration so the track buffers
// stay warm and the bench measures steady-state recording, not growth. Feeds
// the BENCH_perf.json traced row.
func BenchmarkRunParallelTraced(b *testing.B) {
	q := benchQ6(b, 200_000)
	p, err := exec.NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.New()
	tracks := make([]*trace.Track, 4)
	for i := range tracks {
		tracks[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
	}
	p.SetTrace(tracks)
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rec.Reset()
		res, err := p.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	if rec.Events() == 0 {
		b.Fatal("traced run recorded no events")
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// TestRunParallelSteadyStateAllocs pins the scratch-reuse audit of the
// morsel scheduler: once warm, Parallel.Run allocates only its per-call
// result bookkeeping (the busy and WorkerCycles slices and the boxed
// result), independent of table size — wave slots, per-core selection
// buffers, and sample scratch are all reused across calls. The budget has
// headroom for the handful of fixed-size allocations the run makes; what it
// must catch is any O(vectors) or O(rows) allocation sneaking into the wave
// loop. (AllocsPerRun measures at GOMAXPROCS 1, i.e. the inline path; the
// pooled hand-offs are pinned at zero allocations at GOMAXPROCS 2 by
// internal/exec's TestPooledHandOffsAllocateNothing.)
func TestRunParallelSteadyStateAllocs(t *testing.T) {
	d, err := tpch.Generate(tpch.Config{Lineitems: 64 * 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(q); err != nil { // warm-up: bind + grow scratch
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := p.Run(q); err != nil {
			t.Error(err)
		}
	})
	const budget = 16
	if avg > budget {
		t.Errorf("Parallel.Run steady state: %.1f allocs/op, budget %d", avg, budget)
	}
}

// benchServeConcurrent serves n simultaneous submissions of mixed shapes
// (plain scans, a join, a sorted query; fixed and progressive modes) against
// a fresh 4-core server per iteration, waiting from racing goroutines. At
// -cpu 4 each round's blocks run on pooled host helpers; sim_cycles (the
// workload makespan) is bit-identical at every -cpu, pinning that only host
// wall-clock changes. Feeds the BENCH_perf.json served rows.
func benchServeConcurrent(b *testing.B, n int) {
	e, err := New(Config{VectorSize: 512, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(96*512, 31, OrderRandom)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var makespan uint64
	for i := 0; i < b.N; i++ {
		srv, err := NewServer(e, ServerConfig{MaxActive: 4})
		if err != nil {
			b.Fatal(err)
		}
		tks := make([]*Ticket, n)
		for j := range tks {
			opts := ExecOptions{Mode: ModeFixed}
			if j%2 == 1 {
				opts = ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}
			}
			plan := convergentPlan(d, j%3 == 1)
			if j%4 == 3 {
				plan = plan.OrderBy("l_extendedprice", Desc).Limit(8)
			}
			tk, err := srv.SubmitAt(d, plan, opts, uint64(j)*40_000)
			if err != nil {
				b.Fatal(err)
			}
			tks[j] = tk
		}
		var wg sync.WaitGroup
		for _, tk := range tks {
			wg.Add(1)
			go func(tk *Ticket) {
				defer wg.Done()
				if _, err := tk.Wait(); err != nil {
					b.Error(err)
				}
			}(tk)
		}
		wg.Wait()
		makespan = srv.Stats().MakespanCycles
		srv.Close()
	}
	b.ReportMetric(float64(makespan), "sim_cycles")
}

// BenchmarkServeConcurrent4 serves four simultaneous queries — all admitted.
func BenchmarkServeConcurrent4(b *testing.B) { benchServeConcurrent(b, 4) }

// BenchmarkServeConcurrent8 serves eight — queueing behind MaxActive 4.
func BenchmarkServeConcurrent8(b *testing.B) { benchServeConcurrent(b, 8) }

// --- Ablation benches (DESIGN.md, "Key design decisions") ---

func ablationDataset(b *testing.B, rows int, ord tpch.Ordering) *tpch.Dataset {
	b.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if ord != tpch.OrderingNatural {
		d = d.ReorderLineitem(ord, 4)
	}
	return d
}

func progressiveCycles(b *testing.B, d *tpch.Dataset, vectorSize int, opt core.Options) uint64 {
	b.Helper()
	c := cpu.MustNew(cpu.ScaledXeon())
	eng := exec.MustEngine(c, vectorSize)
	q, err := exec.Q6(d)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.BindQuery(q); err != nil {
		b.Fatal(err)
	}
	// Worst-ish initial order: reversed.
	qo, err := q.WithOrder([]int{4, 3, 2, 1, 0})
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.NewParallel(cpu.ScaledXeon(), 1, vectorSize)
	if err != nil {
		b.Fatal(err)
	}
	r := core.NewRun(p)
	if err := r.Begin(core.Spec{Query: qo, Mode: core.ModeProgressive, Opt: opt}); err != nil {
		b.Fatal(err)
	}
	if err := r.Drive(); err != nil {
		b.Fatal(err)
	}
	return r.Result.Cycles
}

// BenchmarkAblationVectorSize: sampling granularity v. adaptation lag.
func BenchmarkAblationVectorSize(b *testing.B) {
	for _, vs := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("vec%d", vs), func(b *testing.B) {
			d := ablationDataset(b, 120_000, tpch.OrderingShipdateSorted)
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = progressiveCycles(b, d, vs, core.Options{ReopInterval: 10})
			}
			b.ReportMetric(float64(cycles), "sim_cycles")
		})
	}
}

// estimationError measures mean absolute selectivity error of the estimator
// against a known synthetic forward-model sample.
func estimationError(b *testing.B, cfg core.EstimatorConfig, truth []float64) float64 {
	b.Helper()
	params := peo.Params{
		N: 1 << 20, Widths: cfg.Widths, AggWidths: cfg.AggWidths,
		Geometry: cfg.Geometry, Chain: cfg.Chain,
	}
	est, err := peo.Counters(params, truth)
	if err != nil {
		b.Fatal(err)
	}
	sample := core.CounterSample{
		N: float64(params.N), BNT: est.BNT, MPTaken: est.MPTaken,
		MPNotTaken: est.MPNotTaken, L3: est.L3, Qualifying: est.Qualifying,
	}
	got, err := core.EstimateSelectivities(sample, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0.0
	for i := range truth {
		sum += math.Abs(got.Sels[i] - truth[i])
	}
	return sum / float64(len(truth))
}

func ablationEstCfg() core.EstimatorConfig {
	return core.EstimatorConfig{
		Widths:    []int{8, 8, 8, 8},
		AggWidths: []int{8},
		Geometry:  cachemodel.MustGeometry(64, 16384),
		Chain:     markov.Paper(),
	}
}

// BenchmarkAblationStartPoints: §4.3's multi-start against a single
// null-hypothesis start. The truth vector is a skewed configuration whose
// counter surface has a local optimum near the even-split null hypothesis —
// exactly the ambiguity §4.3 describes.
func BenchmarkAblationStartPoints(b *testing.B) {
	truth := []float64{1, 0.02, 1, 0.9}
	for _, starts := range []int{1, 8} {
		b.Run(fmt.Sprintf("starts%d", starts), func(b *testing.B) {
			var errv float64
			for i := 0; i < b.N; i++ {
				cfg := ablationEstCfg()
				cfg.MaxStarts = starts
				errv = estimationError(b, cfg, truth)
			}
			b.ReportMetric(errv, "mean_abs_sel_err")
		})
	}
}
