// Package progopt is a from-scratch reproduction of "Non-Invasive
// Progressive Optimization for In-Memory Databases" (Zeuch, Pirk, Freytag,
// PVLDB 9(14), 2016): an in-memory columnar query engine that re-optimizes
// multi-selection queries and join orders *during* execution, driven purely
// by CPU performance counters.
//
// Because real performance-monitoring units are neither portable nor
// deterministic, the engine runs on simulated cores (branch predictors, a
// three-level cache hierarchy with a stream prefetcher, PMU counters, and
// cycle accounting) that mirror every column access and conditional branch
// of query execution. Everything above the counters — the Markov-chain
// branch cost model, the Pirk/Manegold cache cost models, the Nelder-Mead
// selectivity estimator with search-space restriction, and the progressive
// reorder-validate-revert loop — is the paper's machinery, unchanged.
//
// # Quick start
//
// Queries are declared as composable plans, compiled against a data set,
// and executed through one entry point:
//
//	eng, err := progopt.New(progopt.Config{})
//	if err != nil { ... }
//	defer eng.Close()
//	ds, err := eng.GenerateTPCH(1_000_000, 42, progopt.OrderNatural)
//	q, err := eng.Compile(ds, progopt.Scan("lineitem").
//		Filter("l_shipdate", progopt.CmpLE, int64(ds.ShipdateCutoff(0.5))).
//		Filter("l_discount", progopt.CmpGE, 0.05).
//		Filter("l_quantity", progopt.CmpLT, 24).
//		Sum("l_extendedprice * l_discount"))
//	baseline, err := eng.Exec(q, progopt.ExecOptions{Mode: progopt.ModeFixed})
//	adaptive, err := eng.Exec(q, progopt.ExecOptions{
//		Mode:        progopt.ModeProgressive,
//		Progressive: progopt.Progressive{Interval: 10},
//	})
//	fmt.Printf("%.1fx faster, %d reorders\n",
//		baseline.Millis/adaptive.Millis, adaptive.Stats.Reorders)
//
// Plans compose filters (Filter/FilterCost), join-graph edges (JoinOn), a
// sum aggregate (Sum), a grouped aggregation (GroupBy), or ordered output
// (OrderBy with an optional Top-K Limit); Compile validates every column,
// bound, and edge against the data set. Exec drives every execution shape:
// ModeFixed, ModeProgressive, and ModeMicroAdaptive all honor Config.Workers (morsel-driven multi-core
// scans with makespan cycle counts and merged PMU counters), grouped plans
// aggregate with per-core partial hash tables merged at the barrier by every
// core, each merging its own contiguous range of the keys, and
// ordered plans collect into per-core bounded heaps (Limit) or sorted runs
// (full sort) merged by the coordinator at the barrier, emitting
// ExecResult.Rows — each row carrying its sort-key values and the per-row
// value of the plan's Sum expression. Results, grouped output, and ordered
// rows are bit-identical across modes and worker counts. The two adaptive
// modes are one reoptimizer loop at every worker count and in the server: it
// is stepped a morsel block at a time — a vector at a time on a pool of one
// core — and it bounds its own regret: a reverting step decides nothing else,
// rejected orders stay rejected until a reorder survives validation,
// consecutive reverts and consecutive points that confirm the order back it
// off exponentially, and ExecResult.Stats.Ledger says what re-optimizing
// cost the run (DESIGN.md, "The reoptimizer loop").
//
// Scan/Compile/Exec (or NewServer/Submit) is the only plan surface, and
// nothing in Config selects a second engine: the tuple-at-a-time row loop,
// the unfused kernel pipeline and the serial scheduling round that the test
// suites compare the shipped path against are reached only from tests (see
// DESIGN.md, "The equivalence contract").
//
// # Join graphs
//
// Every plan is a join graph rooted at the table it scans — any table of the
// data set — and a filter-only plan is the graph without edges.
// JoinOn(from, key, to) declares an equi-join edge between any two plan
// tables, in any order — Compile resolves the edge set into a tree rooted
// at the driving table, routes each filter to whichever table owns its
// column (driving-table predicates stay put, joined-table predicates push
// down onto their edge), and compiles every edge into an independently
// permutable driving-row probe (multi-hop for edges that do not start at
// the driving table). The default operator order is a statistics-free
// greedy one — smallest build relation first under connectivity — and the
// adaptive modes reorder joins and filters across the whole search space
// from observed PMU counters, bit-identical at every worker count:
//
//	q, err := eng.Compile(ds, progopt.Scan("lineitem").
//		JoinOn("lineitem", "l_orderkey", "orders").
//		JoinOn("lineitem", "l_partkey", "part").
//		JoinOn("orders", "o_custkey", "customer"). // probes lineitem→orders→customer
//		Filter("l_quantity", progopt.CmpLT, 30).
//		Filter("o_orderdate", progopt.CmpLE, int64(ds.ShipdateCutoff(0.05))).
//		Filter("c_acctbal", progopt.CmpGE, 4500.0).
//		Sum("l_extendedprice * l_discount"))
//	res, err := eng.Exec(q, progopt.ExecOptions{Mode: progopt.ModeProgressive,
//		Progressive: progopt.Progressive{Interval: 10}})
//
// See DESIGN.md "Join-graph architecture" for the greedy baseline, the
// rank-based PMU proposal, and why bit-identity survives join reordering.
//
// # Serving a workload
//
// Above the single-query engine sits a workload server that runs many
// queries against one shared pool of simulated cores
// (Server -> plan/feedback cache -> Engine -> exec.Parallel):
//
//	srv, err := progopt.NewServer(eng, progopt.ServerConfig{MaxActive: 4})
//	defer srv.Close()
//	t1, err := srv.SubmitAt(ds, plan, opts, 0)      // arrival on the simulated clock
//	t2, err := srv.SubmitAt(ds, plan, opts, 50_000) // same plan, recurring
//	res1, err := t1.Wait()
//	res2, err := t2.Wait()
//	fmt.Println(res2.Served.PlanCacheHit, res2.Served.WarmStart,
//		res2.Served.LatencyMillis, srv.Stats().MakespanMillis)
//
// An admission controller admits queries in arrival order, up to MaxActive,
// and one admitted query at a time runs to completion on all Config.Workers
// cores while the others wait. The next is the one of shortest expected span,
// the span of its fingerprint's last completed run (an unseen plan costs 0,
// ties go to the oldest), unless a query has been overtaken MaxActive times:
// short recurring queries stop queueing behind long ones. A plan cache keyed by a
// canonical fingerprint (table + operators + bounds + data-set generation)
// skips re-compilation of recurring plans; and a PMU-feedback cache
// warm-starts adaptive runs at the operator order a previous run of the
// same fingerprint converged to, so recurring queries stop paying the
// paper's observation cost. Scheduling runs entirely on the simulated
// clock: a fixed submission trace yields bit-identical per-query results,
// latencies, and total makespan on every host run, at any GOMAXPROCS. A
// query that finds the pool idle is bit-identical to Engine.Exec
// (equivalence_test.go). A query whose step fails is retired with its error
// alone; the other tickets are served as if it had never been submitted.
// Within a round — as within any Exec at Workers > 1 — the simulated cores
// run on as many host threads as are free: the next morsel is handed out as
// soon as the clocks the running cores have published prove the serial
// scheduler would make the same pick. None of it is configurable and none of
// it is observable in any result.
// Once a plan is cached and the scratch is warm, serving a query allocates
// under a hundred host objects (the pinned budget is 150 per query, measured
// 50 fixed and 94 adaptive) however many scheduling rounds it takes: the
// selectivity estimator's buffers belong to the query's stepper for the life
// of the run, and the SampleObs a re-optimization decision adds to
// Stats.Samples is a plain value, so a decision allocates nothing.
// cmd/progopt-serve drives seeded workload traces and emits the
// BENCH_serve.json artifact.
//
// # Stored tables
//
// Config.Storage puts the driving table on simulated persistent storage:
// the data set encodes into the PCOL v2 block format (dictionary and
// frame-of-reference compression, per-block zone maps) and a storage tier
// below DRAM prices block-granularity transfers under an LRU resident-set
// budget:
//
//	eng, err := progopt.New(progopt.Config{Storage: &progopt.StorageConfig{
//		LatencyCycles: 400, BytesPerCycle: 16,
//		ResidentBytes: 1 << 20, SkipScan: true, CompressedScan: true,
//	}})
//	defer eng.Close()
//
// The tier moves only time: a stored run's rows, aggregates, morsel schedule,
// and every PMU counter are bit-identical to the in-RAM engine's, and only
// reported Cycles grows, by the run's StallCycles. SkipScan answers
// vectors that zone maps prove empty from metadata alone; CompressedScan
// prices predicate scans over the packed column images, moving fewer
// simulated bytes without changing any answer. ExecResult.Storage reports
// block pruning and tier activity; Explain renders the same provenance.
// cmd/tpchgen writes the stored file format (PCOL v2; -compress prints the
// per-column report).
//
// # Tracing and metrics
//
// Config.Trace attaches a deterministic event recorder keyed entirely on
// the simulated clock: per-operator and per-vector spans, morsel spans,
// the reoptimizer's decision log (sample/reorder/revert/impl-switch
// instants carrying their PMU evidence), storage-tier fetch/evict
// instants, and the workload server's admission events. Tracing is a pure
// observer — a traced run's results, cycles, and every PMU counter are
// bit-identical to the untraced run — and identical configurations
// produce byte-identical trace files on every host:
//
//	eng, err := progopt.New(progopt.Config{Trace: &progopt.TraceOptions{}})
//	if err != nil { ... }
//	defer eng.Close()
//	ds, err := eng.GenerateTPCH(100_000, 42, progopt.OrderRandom)
//	q, err := eng.Compile(ds, progopt.Scan("lineitem").
//		Filter("l_shipdate", progopt.CmpLE, int64(ds.ShipdateCutoff(0.5))).
//		Filter("l_discount", progopt.CmpGE, 0.05).
//		Sum("l_extendedprice * l_discount"))
//	res, err := eng.Exec(q, progopt.ExecOptions{
//		Mode:        progopt.ModeProgressive,
//		Progressive: progopt.Progressive{Interval: 10},
//	})
//	err = eng.Trace().WriteChromeFile("trace.json") // load in Perfetto
//	pe, err := eng.Explain(q)                       // includes a trace: span summary
//
// One trace nanosecond equals one simulated cycle, with one named track
// per simulated core plus optimizer and service tracks. Servers
// additionally render their counters in Prometheus text format — queries
// served, plan/feedback cache hit rates, p50/p95/p99 simulated latency of
// every completed query, storage-tier residency — via Server.WriteMetrics. Per-sample PMU series are retained on
// Stats.Samples (a bounded ring), one source of truth shared by the
// trace, the metrics, and the ext-trace convergence figure. The -trace
// flag on cmd/progopt and cmd/progopt-serve records whole figure runs and
// served workloads; cmd/progopt-tracecheck validates the artifacts.
//
// The Examples in example_test.go, which documentation servers such as
// pkgsite show beside the API they use, are runnable programs whose printed
// answers, simulated milliseconds and PMU counts go test checks; DESIGN.md
// describes the reproduction methodology and per-figure results.
package progopt
