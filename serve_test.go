package progopt

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// convergentPlan is a scan whose predicate selectivities (~0.8 / ~0.5 /
// ~0.18) are cleanly separated and chained worst-first, so a cold
// progressive run reliably reorders and then confirms — the regime feedback
// warm starts are designed for. withJoin appends a foreign-key join, the
// acceptance criterion's recurring join query.
func convergentPlan(d *Dataset, withJoin bool) *Plan {
	p := Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).Label("ship80").
		Filter("l_discount", CmpLE, 0.05).Label("disc<=.05").
		Filter("l_quantity", CmpLT, 10).Label("qty<10")
	if withJoin {
		ordersEdge(p, midOrderDate)
	}
	return p
}

func serveEngine(t *testing.T, workers int) (*Engine, *Dataset) {
	t.Helper()
	e, err := New(Config{VectorSize: 512, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.GenerateTPCH(96*512, 31, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// TestServeFingerprintOrderIndependent: the same steps chained in a
// different order hit the plan cache (identical canonical fingerprint),
// while changing a bound, the bound pushed down to a joined table, or the
// data-set generation misses.
func TestServeFingerprintOrderIndependent(t *testing.T) {
	e, d := serveEngine(t, 2)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(d *Dataset, p *Plan) *ServedInfo {
		t.Helper()
		tk, err := srv.Submit(d, p, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res.Served
	}
	a := ordersEdge(Scan("lineitem").
		Filter("l_quantity", CmpLT, 24).
		Filter("l_discount", CmpGE, 0.05), midOrderDate).
		Sum("l_extendedprice * l_discount")
	b := ordersEdge(Scan("lineitem"), midOrderDate).
		Filter("l_discount", CmpGE, 0.05).
		Filter("l_quantity", CmpLT, 24).
		Sum("l_discount * l_extendedprice") // commuted factors
	ia := submit(d, a)
	ib := submit(d, b)
	if ia.Fingerprint != ib.Fingerprint {
		t.Errorf("reordered plan fingerprints differ: %s vs %s", ia.Fingerprint, ib.Fingerprint)
	}
	if ia.PlanCacheHit || !ib.PlanCacheHit {
		t.Errorf("cache hits wrong: first %v second %v, want false/true", ia.PlanCacheHit, ib.PlanCacheHit)
	}

	// Bound change -> new fingerprint.
	c := ordersEdge(Scan("lineitem").
		Filter("l_quantity", CmpLT, 25).
		Filter("l_discount", CmpGE, 0.05), midOrderDate).
		Sum("l_extendedprice * l_discount")
	if ic := submit(d, c); ic.Fingerprint == ia.Fingerprint || ic.PlanCacheHit {
		t.Error("bound change did not change the fingerprint")
	}
	// Pushed-down bound change -> new fingerprint.
	j := ordersEdge(Scan("lineitem").
		Filter("l_quantity", CmpLT, 24).
		Filter("l_discount", CmpGE, 0.05), midOrderDate-300).
		Sum("l_extendedprice * l_discount")
	if ij := submit(d, j); ij.Fingerprint == ia.Fingerprint || ij.PlanCacheHit {
		t.Error("a changed bound on the joined table did not change the fingerprint")
	}
	// Same parameters, regenerated data set -> new generation -> miss.
	d2, err := e.GenerateTPCH(96*512, 31, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Generation() == d.Generation() {
		t.Fatal("regenerated data set reused a generation")
	}
	if i2 := submit(d2, a); i2.Fingerprint == ia.Fingerprint || i2.PlanCacheHit {
		t.Error("data-set generation did not invalidate the plan cache")
	}
	st := srv.Stats()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 4 {
		t.Errorf("hits=%d misses=%d, want 1/4", st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestShuffleWindowGeneration: a windowed shuffle is a new data set. It gets
// its own generation, so a server never answers a plan on one shuffle with the
// query compiled against another (both submissions miss the plan cache and
// match a direct Compile+Exec on their own data), and a storage-backed engine
// encodes each shuffle into its own stored image.
//
// Each query arrives at the server's makespan, when every core is idle and
// clamps to the arrival. Exec starts every core at zero; cores entered at
// unequal clocks are the one legitimate reason a query served alone costs
// other cycles than Exec, and the default arrival ("now", the earliest free
// core) has them after the first query.
func TestShuffleWindowGeneration(t *testing.T) {
	setup := func(cfg Config) (*Engine, [2]*Dataset) {
		t.Helper()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := e.GenerateTPCH(32*512, 31, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		return e, [2]*Dataset{base.ShuffleWindow(1, 1), base.ShuffleWindow(5000, 2)}
	}
	plan := func() *Plan {
		return ordersEdge(Scan("lineitem").Filter("l_quantity", CmpLT, 24), midOrderDate)
	}
	cfg := Config{VectorSize: 512, Workers: 2}
	eDirect, direct := setup(cfg)
	defer eDirect.Close()
	eServed, served := setup(cfg)
	defer eServed.Close()
	if g0, g1 := served[0].Generation(), served[1].Generation(); g0 == 0 || g1 == 0 || g0 == g1 {
		t.Fatalf("shuffled data sets have generations %d and %d, want non-zero and distinct", g0, g1)
	}
	srv, err := NewServer(eServed, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var cycles [2]uint64
	for i := range direct {
		q, err := eDirect.Compile(direct[i], plan())
		if err != nil {
			t.Fatal(err)
		}
		want, err := eDirect.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := srv.SubmitAt(served[i], plan(), ExecOptions{Mode: ModeFixed}, srv.Stats().MakespanCycles)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.Served.PlanCacheHit {
			t.Errorf("shuffle %d was served from another data set's compiled plan", i)
		}
		sameResult(t, fmt.Sprintf("shuffle %d served vs direct", i), want.Result, got.Result)
		cycles[i] = want.Cycles
	}
	if cycles[0] == cycles[1] {
		t.Errorf("both shuffles cost %d cycles; the plan does not tell them apart", cycles[0])
	}
	if st := srv.Stats(); st.PlanCacheHits != 0 || st.PlanCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", st.PlanCacheHits, st.PlanCacheMisses)
	}

	eStored, stored := setup(Config{VectorSize: 512, Storage: &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16}})
	for i, d := range stored {
		q, err := eStored.Compile(d, plan())
		if err != nil {
			t.Fatal(err)
		}
		got, want := q.q.Table.Column("l_orderkey"), d.d.Lineitem.Column("l_orderkey")
		for row := 0; row < want.Len(); row++ {
			if got.Int64At(row) != want.Int64At(row) {
				t.Fatalf("shuffle %d compiled against another data set's stored image (row %d: l_orderkey %d, data set has %d)",
					i, row, got.Int64At(row), want.Int64At(row))
			}
		}
	}
}

// TestServePlanCacheEviction: the plan cache respects
// ServerConfig.PlanCacheSize with LRU eviction.
func TestServePlanCacheEviction(t *testing.T) {
	e, d := serveEngine(t, 1)
	srv, err := NewServer(e, ServerConfig{PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan := func(bound int) *Plan {
		return Scan("lineitem").Filter("l_quantity", CmpLT, bound)
	}
	submit := func(p *Plan) {
		t.Helper()
		tk, err := srv.Submit(d, p, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	submit(plan(10)) // miss, cache {10}
	submit(plan(20)) // miss, cache {10, 20}
	submit(plan(10)) // hit, recency [20, 10]
	submit(plan(30)) // miss, evicts LRU 20, recency [10, 30]
	submit(plan(20)) // miss (evicted), evicts 10, recency [30, 20]
	submit(plan(30)) // hit (kept)
	st := srv.Stats()
	if st.PlanCacheEvictions != 2 {
		t.Errorf("evictions=%d, want 2", st.PlanCacheEvictions)
	}
	if st.PlanCacheHits != 2 || st.PlanCacheMisses != 4 {
		t.Errorf("hits=%d misses=%d, want 2/4", st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestServeRejectedModeLeavesPlanCacheAlone: a submission refused for its mode
// — an unknown one, an adaptive one on a grouped plan — is refused before the
// plan cache is consulted: nothing is compiled or cached and no miss counted.
func TestServeRejectedModeLeavesPlanCacheAlone(t *testing.T) {
	e, d := serveEngine(t, 2)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	grouped := Scan("lineitem").Filter("l_quantity", CmpLT, 10).GroupBy("l_quantity", "l_extendedprice")
	for name, sub := range map[string]struct {
		plan *Plan
		mode Mode
	}{
		"unknown mode":     {convergentPlan(d, false), Mode(7)},
		"internal mode":    {convergentPlan(d, false), Mode(3)},
		"adaptive grouped": {grouped, ModeProgressive},
	} {
		if _, err := srv.Submit(d, sub.plan, ExecOptions{Mode: sub.mode}); err == nil {
			t.Errorf("%s: submission accepted", name)
		}
	}
	if st := srv.Stats(); st.PlanCacheMisses != 0 || st.PlanCacheHits != 0 || st.Submitted != 0 || srv.plans.Len() != 0 {
		t.Errorf("rejected submissions left %d misses, %d hits, %d submitted, %d cached plans; want none",
			st.PlanCacheMisses, st.PlanCacheHits, st.Submitted, srv.plans.Len())
	}
	// The grouped plan itself is fine: in fixed order it compiles, once.
	tk, err := srv.Submit(d, grouped, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PlanCacheMisses != 1 || srv.plans.Len() != 1 {
		t.Errorf("%d misses, %d cached plans after one accepted submission; want 1 and 1", st.PlanCacheMisses, srv.plans.Len())
	}
}

// TestServeWarmStartRecurringJoin pins the acceptance criterion: the second
// submission of a recurring join query warm-starts at the converged pipeline
// order and spends measurably fewer simulated cycles before reaching it —
// with a bit-identical answer.
func TestServeWarmStartRecurringJoin(t *testing.T) {
	e, d := serveEngine(t, 4)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}
	run := func() ExecResult {
		t.Helper()
		tk, err := srv.Submit(d, convergentPlan(d, true), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.Served.WarmStart {
		t.Fatal("first submission warm-started")
	}
	if cold.Stats.Reorders == 0 {
		t.Fatal("cold run never reordered; workload cannot demonstrate a warm start")
	}
	warm := run()
	if !warm.Served.WarmStart || !warm.Served.PlanCacheHit {
		t.Fatalf("second submission not warm-started from cache: %+v", warm.Served)
	}
	if warm.Qualifying != cold.Qualifying || warm.Sum != cold.Sum {
		t.Errorf("warm start changed the answer: %d/%v vs %d/%v",
			warm.Qualifying, warm.Sum, cold.Qualifying, cold.Sum)
	}
	if warm.Stats.ConvergedAtCycles >= cold.Stats.ConvergedAtCycles {
		t.Errorf("warm converged at %d cycles, cold at %d — no warm-start benefit",
			warm.Stats.ConvergedAtCycles, cold.Stats.ConvergedAtCycles)
	}
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warm run cost %d cycles, cold %d", warm.Cycles, cold.Cycles)
	}
	st := srv.Stats()
	if st.FeedbackWarmStarts != 1 || st.FeedbackStores != 2 {
		t.Errorf("warm starts %d stores %d, want 1/2", st.FeedbackWarmStarts, st.FeedbackStores)
	}
}

// serveTraceObs is one run of the determinism trace: everything the server
// reports that must reproduce bit for bit.
type serveTraceObs struct {
	Qual    []int64
	Sum     []float64
	Cycles  []uint64
	Latency []uint64
	Counter []uint64
	Stats   ServerStats
}

// runServeTrace submits a fixed six-query trace (two recurring templates,
// staggered arrivals, mixed modes) and waits from parallel goroutines.
func runServeTrace(t *testing.T) serveTraceObs {
	t.Helper()
	e, d := serveEngine(t, 4)
	srv, err := NewServer(e, ServerConfig{MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := []ExecOptions{
		{Mode: ModeFixed},
		{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}},
		{Mode: ModeFixed},
		{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}},
		{Mode: ModeFixed},
		{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}},
	}
	tks := make([]*Ticket, len(opts))
	for i, o := range opts {
		tk, err := srv.SubmitAt(d, convergentPlan(d, i%2 == 1), o, uint64(i)*40_000)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	obs := serveTraceObs{
		Qual:    make([]int64, len(tks)),
		Sum:     make([]float64, len(tks)),
		Cycles:  make([]uint64, len(tks)),
		Latency: make([]uint64, len(tks)),
		Counter: make([]uint64, len(tks)),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(tks))
	for i, tk := range tks {
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			res, err := tk.Wait()
			if err != nil {
				errs[i] = err
				return
			}
			obs.Qual[i] = res.Qualifying
			obs.Sum[i] = res.Sum
			obs.Cycles[i] = res.Cycles
			obs.Latency[i] = res.Served.LatencyCycles
			obs.Counter[i] = res.Counters["instructions"]
		}(i, tk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	obs.Stats = srv.Stats()
	return obs
}

// TestServeTraceDeterministic pins the tentpole determinism criterion: the
// same seeded trace, waited on by racing goroutines, yields bit-identical
// per-query results, latencies, and makespan on repeated runs and across
// GOMAXPROCS settings.
func TestServeTraceDeterministic(t *testing.T) {
	a := runServeTrace(t)
	b := runServeTrace(t)
	old := runtime.GOMAXPROCS(1)
	c := runServeTrace(t)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("trace not reproducible:\n a %+v\n b %+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Errorf("trace differs across GOMAXPROCS:\n a %+v\n c %+v", a, c)
	}
	if a.Stats.Completed != 6 || a.Stats.PlanCacheHits != 4 {
		t.Errorf("trace stats unexpected: %+v", a.Stats)
	}
}

// TestExplainServedGolden pins the full Explain rendering of a served query,
// including plan-cache and warm-start provenance.
func TestExplainServedGolden(t *testing.T) {
	e, d := serveEngine(t, 4)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}
	t1, err := srv.Submit(d, convergentPlan(d, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Submit(d, convergentPlan(d, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(t2.Query())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`Scan lineitem (49152 rows; batch exec, 4 worker(s))
  0: ship80                   predicate sel=0.8000  input=1.0000
  1: disc<=.05                predicate sel=0.5484  input=0.8000
  2: qty<10                   predicate sel=0.1810  input=0.4388
  pipeline: filter+filter+filter [fused]
served: plan-cache hit; feedback warm-start order 2-1-0; fingerprint %s
predicted: BNT=64791 MP=33455 L3=15359 out=3904
`, cold.Served.Fingerprint)
	if got := plan.String(); got != want {
		t.Errorf("served explain drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainSortedServedGolden pins the full Explain rendering of a served
// *sorted* query: the order-by line (keys, direction, limit, physical
// strategy, per-core partial states) plus the complete serving provenance —
// plan-cache hit, feedback warm-start order, fingerprint. Every provenance
// field must be populated; an empty field here is a wiring regression
// between the plan cache, the ticket, and Explain.
func TestExplainSortedServedGolden(t *testing.T) {
	e, d := serveEngine(t, 4)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}
	sorted := func() *Plan {
		return convergentPlan(d, false).OrderBy("l_extendedprice", Desc).Limit(10)
	}
	t1, err := srv.Submit(d, sorted(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Submit(d, sorted(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Served == nil || cold.Served.Fingerprint == "" {
		t.Fatalf("cold serving provenance incomplete: %+v", cold.Served)
	}
	if warm.Served == nil || !warm.Served.PlanCacheHit || !warm.Served.WarmStart {
		t.Fatalf("warm serving provenance incomplete: %+v", warm.Served)
	}
	if len(warm.Rows) != 10 || !reflect.DeepEqual(cold.Rows, warm.Rows) {
		t.Fatalf("served ordered rows wrong: %d cold vs %d warm", len(cold.Rows), len(warm.Rows))
	}
	plan, err := e.Explain(t2.Query())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`Scan lineitem (49152 rows; batch exec, 4 worker(s))
  0: ship80                   predicate sel=0.8000  input=1.0000
  1: disc<=.05                predicate sel=0.5484  input=0.8000
  2: qty<10                   predicate sel=0.1810  input=0.4388
  order by l_extendedprice desc limit 10 (bounded heap) [4 partial state(s)]
  pipeline: filter+filter+filter [fused]
served: plan-cache hit; feedback warm-start order 2-1-0; fingerprint %s
predicted: BNT=64791 MP=33455 L3=15359 out=3904
`, cold.Served.Fingerprint)
	if got := plan.String(); got != want {
		t.Errorf("sorted served explain drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeWaitTwiceObservesOnce: a ticket may be waited on any number of
// times (service.Ticket.Wait supports several waiters), but it is one query:
// the latency summary counts it once, like the completed gauge, and every
// Wait returns the same result.
func TestServeWaitTwiceObservesOnce(t *testing.T) {
	e, d := serveEngine(t, 2)
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(d, convergentPlan(d, false), ExecOptions{Mode: ModeProgressive})
	if err != nil {
		t.Fatal(err)
	}
	first, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	second, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("the two Waits differ:\n first %+v\nsecond %+v", first, second)
	}
	var met bytes.Buffer
	if err := srv.WriteMetrics(&met); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"progopt_queries_completed 1", "progopt_query_latency_cycles_count 1"} {
		if !strings.Contains(met.String(), line+"\n") {
			t.Errorf("metrics lack %q:\n%s", line, met.String())
		}
	}
}

// TestServeMetricsGolden pins WriteMetrics byte for byte after a small fixed
// workload: fixed, progressive and micro-adaptive queries, so the reopt_*
// gauges are nonzero; stored queries under a resident budget, so the resident
// gauge is; a one-plan cache, so plans evict; and a late recurring query, so
// one run warm-starts. `go test -run
// TestServeMetricsGolden -update .` rewrites testdata/metrics_golden.prom, for
// an intended change of the exposition only.
func TestServeMetricsGolden(t *testing.T) {
	const path = "testdata/metrics_golden.prom"
	e, err := New(Config{VectorSize: 512, Workers: 2,
		Storage: &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16, ResidentBytes: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(32*512, 31, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{PlanCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adaptive := Progressive{Interval: 5}
	subs := []struct {
		plan *Plan
		opts ExecOptions
	}{
		{convergentPlan(d, false), ExecOptions{Mode: ModeFixed}},
		{convergentPlan(d, true), ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
		{convergentPlan(d, false), ExecOptions{Mode: ModeMicroAdaptive, Progressive: adaptive}},
		{convergentPlan(d, false), ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
		{convergentPlan(d, true), ExecOptions{Mode: ModeFixed}},
		// Arrives after the rest are done, so it warm-starts.
		{convergentPlan(d, false), ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
	}
	tks := make([]*Ticket, len(subs))
	for i, sub := range subs {
		at := uint64(i) * 20_000
		if i == len(subs)-1 {
			at = 2_000_000
		}
		if tks[i], err = srv.SubmitAt(d, sub.plan, sub.opts, at); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := srv.WriteMetrics(&got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestServeResidentGaugeSumsPerCoreBudgets: StorageConfig.ResidentBytes
// bounds each simulated core's tier view, and progopt_storage_resident_bytes
// sums the views of the last stored query. A scan that overflows every view
// reads above one budget and never above Workers of them.
func TestServeResidentGaugeSumsPerCoreBudgets(t *testing.T) {
	const workers, budget = 4, 16 << 10
	e, err := New(Config{VectorSize: 512, Workers: workers,
		Storage: &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16, ResidentBytes: budget}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(32*512, 31, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(d, convergentPlan(d, false), ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	var met bytes.Buffer
	if err := srv.WriteMetrics(&met); err != nil {
		t.Fatal(err)
	}
	const name = "progopt_storage_resident_bytes "
	i := strings.Index(met.String(), "\n"+name)
	if i < 0 {
		t.Fatalf("metrics lack %q:\n%s", name, met.String())
	}
	line, _, _ := strings.Cut(met.String()[i+1+len(name):], "\n")
	got, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got <= budget || got > workers*budget {
		t.Errorf("resident gauge %v, want in (%d, %d]: above one view's budget, within the %d views'",
			got, budget, workers*budget, workers)
	}
}

// TestServeUnwaitedQueriesCountInLatency: the service records a query's
// latency when it completes, so a query nobody waits on counts in the summary
// like it counts in progopt_queries_completed.
func TestServeUnwaitedQueriesCountInLatency(t *testing.T) {
	e, d := serveEngine(t, 2)
	defer e.Close()
	// One query at a time: the last completes after the other two.
	srv, err := NewServer(e, ServerConfig{MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var last *Ticket
	for range 3 {
		if last, err = srv.Submit(d, convergentPlan(d, false), ExecOptions{Mode: ModeFixed}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	var met bytes.Buffer
	if err := srv.WriteMetrics(&met); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"progopt_queries_completed 3", "progopt_query_latency_cycles_count 3"} {
		if !strings.Contains(met.String(), line+"\n") {
			t.Errorf("metrics lack %q:\n%s", line, met.String())
		}
	}
}

// TestLatencySummaryNearestRank: the summary's quantiles are nearest-rank
// over the sorted latencies, and _sum and _count cover all of them.
func TestLatencySummaryNearestRank(t *testing.T) {
	lat := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0, 1}, {0.5, 5}, {0.95, 10}, {0.99, 10}, {1, 10}} {
		if got := nearestRank(lat, c.q); got != c.want {
			t.Errorf("q %v of 1..10 = %d, want %d", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("q 0.5 of nothing = %d, want 0", got)
	}
	var b bytes.Buffer
	writeLatencySummary(&b, lat)
	want := `# HELP progopt_query_latency_cycles Per-query simulated latency (Done-Arrival), in cycles.
# TYPE progopt_query_latency_cycles summary
progopt_query_latency_cycles{quantile="0.5"} 5
progopt_query_latency_cycles{quantile="0.95"} 10
progopt_query_latency_cycles{quantile="0.99"} 10
progopt_query_latency_cycles_sum 55
progopt_query_latency_cycles_count 10
`
	if b.String() != want {
		t.Errorf("summary:\n%s\nwant:\n%s", b.String(), want)
	}
}
