package progopt

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
)

// The host-concurrency acceptance criterion: a served workload whose rounds
// run their blocks on pooled host helpers, waited on from racing goroutines,
// is bit-identical — per-query results, simulated cycles, every PMU counter,
// trace bytes, Prometheus metrics — to the same server at GOMAXPROCS=1, where
// every block runs inline on the driving waiter, across Workers {1,4} ×
// GOMAXPROCS {1,4} × the three exec modes × plain/stored/traced variants.

// serveMatrixObs is everything one served workload reports that must match
// the inline rounds bit for bit.
type serveMatrixObs struct {
	Results []ExecResult
	Stats   ServerStats
	Metrics string
	Trace   string
}

// runServeMatrix serves a fixed nine-query trace — all three exec modes, a
// join, a sorted query, one grouped plan submitted twice so that both runs of
// the cached plan are admitted together, recurring fingerprints, staggered
// arrivals — and waits from racing goroutines. The stored variant is traced
// too, under a budget that forces evictions, so every core's tier-fetch and
// tier-evict order is part of the compared trace bytes.
func runServeMatrix(t *testing.T, workers int, variant string) serveMatrixObs {
	t.Helper()
	cfg := Config{VectorSize: 512, Workers: workers}
	switch variant {
	case "stored":
		cfg.Storage = &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16, ResidentBytes: 8 << 10}
		cfg.Trace = &TraceOptions{}
	case "traced":
		cfg.Trace = &TraceOptions{}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(48*512, 31, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(e, ServerConfig{MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adaptive := Progressive{Interval: 5}
	grouped := Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		GroupBy("l_quantity", "l_extendedprice")
	subs := []struct {
		plan *Plan
		opts ExecOptions
	}{
		{grouped, ExecOptions{Mode: ModeFixed}},
		{grouped, ExecOptions{Mode: ModeFixed}},
		{convergentPlan(d, false), ExecOptions{Mode: ModeFixed}},
		{convergentPlan(d, true), ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
		{convergentPlan(d, false), ExecOptions{Mode: ModeMicroAdaptive, Progressive: adaptive}},
		{convergentPlan(d, false).OrderBy("l_extendedprice", Desc).Limit(8),
			ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
		{convergentPlan(d, true), ExecOptions{Mode: ModeProgressive, Progressive: adaptive}},
		{convergentPlan(d, false), ExecOptions{Mode: ModeMicroAdaptive, Progressive: adaptive}},
		{convergentPlan(d, true), ExecOptions{Mode: ModeFixed}},
	}
	tks := make([]*Ticket, len(subs))
	for i, sub := range subs {
		tk, err := srv.SubmitAt(d, sub.plan, sub.opts, uint64(i)*40_000)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	obs := serveMatrixObs{Results: make([]ExecResult, len(tks))}
	errs := make([]error, len(tks))
	var wg sync.WaitGroup
	for i, tk := range tks {
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			obs.Results[i], errs[i] = tk.Wait()
		}(i, tk)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		// Fingerprints hash the data-set generation, a process-global counter,
		// so they are unique per run by design; everything else must match.
		obs.Results[i].Served.Fingerprint = ""
	}
	obs.Stats = srv.Stats()
	var met bytes.Buffer
	if err := srv.WriteMetrics(&met); err != nil {
		t.Fatal(err)
	}
	obs.Metrics = met.String()
	if cfg.Trace != nil {
		var tr bytes.Buffer
		if err := e.Trace().WriteChrome(&tr); err != nil {
			t.Fatal(err)
		}
		obs.Trace = tr.String()
	}
	// The two grouped runs were admitted together on the compiled plan, the
	// second waiting for the first, and each is the answer of a direct Exec.
	a, b := obs.Results[0], obs.Results[1]
	if !b.Served.PlanCacheHit || !(b.Served.Arrival < a.Served.Done && a.Served.Done <= b.Served.Start) {
		t.Errorf("grouped runs %d..%d and %d..%d (arrival %d, plan-cache hit %v): want one cached plan admitted twice, the runs one after the other",
			a.Served.Start, a.Served.Done, b.Served.Start, b.Served.Done, b.Served.Arrival, b.Served.PlanCacheHit)
	}
	direct, err := e.Exec(tks[0].Query(), ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []ExecResult{a, b} {
		if g.Qualifying != direct.Qualifying || len(g.Groups) == 0 || !reflect.DeepEqual(g.Groups, direct.Groups) {
			t.Errorf("served grouped run differs from Exec: %d qualifying in %d groups, Exec %d in %d",
				g.Qualifying, len(g.Groups), direct.Qualifying, len(direct.Groups))
		}
	}
	return obs
}

// TestServeConcurrentBitIdentical: the served workload reproduces its inline
// rounds at GOMAXPROCS=1 bit for bit over the full matrix, at GOMAXPROCS 1
// and 4.
func TestServeConcurrentBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, variant := range []string{"plain", "stored", "traced"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, variant), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(1)
				ref := runServeMatrix(t, workers, variant)
				runtime.GOMAXPROCS(prev)
				if variant == "stored" {
					var evictions uint64
					for _, r := range ref.Results {
						evictions += r.Storage.Evictions
					}
					if evictions == 0 || !strings.Contains(ref.Trace, `"tier-evict"`) {
						t.Fatalf("%d evictions, none traced; the tier-order check is vacuous", evictions)
					}
				}
				for _, gmp := range []int{1, 4} {
					t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
						got := runServeMatrix(t, workers, variant)
						for i := range ref.Results {
							if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
								t.Errorf("query %d diverges from the inline rounds:\n inline     %+v\n concurrent %+v",
									i, ref.Results[i], got.Results[i])
							}
						}
						if ref.Stats != got.Stats {
							t.Errorf("server stats diverge:\n inline     %+v\n concurrent %+v", ref.Stats, got.Stats)
						}
						if ref.Metrics != got.Metrics {
							t.Errorf("metrics exposition diverges:\n inline:\n%s\n concurrent:\n%s", ref.Metrics, got.Metrics)
						}
						if ref.Trace != got.Trace {
							t.Errorf("trace bytes diverge: %d vs %d bytes", len(ref.Trace), len(got.Trace))
						}
					})
				}
			})
		}
	}
}

// TestServeStatsNonBlockingMidRun pins the published-at-barrier regression:
// Server.Stats called from a second goroutine must not block behind an
// in-flight scheduling round, and must observe the makespan advancing while
// the workload is still running (a driving waiter that held the server mutex
// for the whole workload let a mid-run Stats call see only the pre-run or
// final makespan).
func TestServeStatsNonBlockingMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e, d := serveEngine(t, 4)
	defer e.Close()
	srv, err := NewServer(e, ServerConfig{MaxActive: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tks := make([]*Ticket, 6)
	for i := range tks {
		mode := ExecOptions{Mode: ModeFixed}
		if i%2 == 1 {
			mode = ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}
		}
		tk, err := srv.SubmitAt(d, convergentPlan(d, i%2 == 1), mode, uint64(i)*40_000)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tk := range tks {
			if _, err := tk.Wait(); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
		}
	}()
	var midrun []uint64
poll:
	for {
		select {
		case <-done:
			break poll
		default:
		}
		st := srv.Stats()
		if n := len(midrun); n == 0 || midrun[n-1] != st.MakespanCycles {
			midrun = append(midrun, st.MakespanCycles)
		}
		runtime.Gosched()
	}
	final := srv.Stats().MakespanCycles
	if final == 0 {
		t.Fatal("workload drove the clock nowhere")
	}
	saw := 0
	for _, v := range midrun {
		if v > 0 && v < final {
			saw++
		}
	}
	if saw == 0 {
		t.Errorf("no mid-run Stats call observed an intermediate makespan (%d polls, final %d); reads are blocking behind the round", len(midrun), final)
	}
}

// TestServeSteadyStateAllocs pins the served path's steady-state allocations
// in all three modes and for a grouped query: after warm-up, a query's host
// allocations must not grow with its round count nor, for the adaptive modes,
// with its decision count (the public result carries one SampleObs, a plain
// value, per decision). A grouped query's accumulator and survivor buffers
// belong to its run, which the server recycles, so only its output rows are
// allocated anew.
// ModeFixed alone never reaches the estimator, which used to issue ~1 300
// allocations per decision (98 % of a served workload's mallocs) unseen by
// this test.
// AllocsPerRun measures at GOMAXPROCS=1, i.e. the inline round path; the
// pooled blocks are pinned at zero allocations at GOMAXPROCS 2 by
// internal/exec's TestPooledHandOffsAllocateNothing.
// The data alternates (alternatingLineitem): on stationary data the
// confirmation back-off would leave an adaptive query a handful of decisions
// at either quantum.
func TestServeSteadyStateAllocs(t *testing.T) {
	// measure serves one 48-vector query per run with the given scheduling
	// quantum, which for the adaptive modes is also the re-optimization
	// interval: an adaptive query runs one block, and decides once, per round.
	measure := func(mode Mode, grouped bool, quantum int) (allocs float64, decisions int) {
		e, err := New(Config{VectorSize: 512, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		d, err := e.GenerateTPCH(48*512, 31, OrderRandom)
		if err != nil {
			t.Fatal(err)
		}
		d = alternatingLineitem(d, 512)
		srv, err := NewServer(e, ServerConfig{QuantumVectors: quantum})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		run := func() {
			plan := Scan("lineitem").
				Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
				Filter("l_quantity", CmpLT, 10)
			if grouped {
				plan.GroupBy("l_quantity", "l_extendedprice")
			}
			tk, err := srv.Submit(d, plan,
				ExecOptions{Mode: mode, Progressive: Progressive{Interval: quantum}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			decisions = res.Stats.Optimizations
		}
		run() // warm the plan and feedback caches, scratch freelist, and exec scratch
		run()
		return testing.AllocsPerRun(5, run), decisions
	}
	for _, tc := range []struct {
		mode    Mode
		grouped bool
	}{{ModeFixed, false}, {ModeProgressive, false}, {ModeMicroAdaptive, false}, {ModeFixed, true}} {
		mode := tc.mode
		many, manyDecisions := measure(mode, tc.grouped, 1) // ~48 scheduling rounds per query
		few, fewDecisions := measure(mode, tc.grouped, 4)   // 12 rounds per query
		if mode != ModeFixed && manyDecisions < fewDecisions+8 {
			t.Fatalf("%v: %d v. %d decisions; the comparison needs more at quantum=1", mode, manyDecisions, fewDecisions)
		}
		// Nothing may scale with either: a decision's observation is one more
		// element of Stats.Samples, whose few reallocations are the headroom.
		const allowed = 16.0
		if delta := many - few; delta > allowed {
			t.Errorf("%v (grouped %v): allocs grow with round/decision count: %.1f at quantum=1 (%d decisions) vs %.1f at quantum=4 (%d decisions); delta %.1f, allowed %.1f",
				mode, tc.grouped, many, manyDecisions, few, fewDecisions, delta, allowed)
		}
		if many > 150 {
			t.Errorf("%v (grouped %v): served query allocates %.1f times at steady state; budget 150", mode, tc.grouped, many)
		}
	}
}

// alternatingLineitem returns d with its lineitem rows reordered so that the
// rows with l_quantity < 10 alternate by vector of vs rows: each even vector
// holds three times the share of them each odd vector holds. The share of
// tuples a one-vector step qualifies under convergentPlan then jumps at every
// step, so an adaptive query keeps finding that its data has moved, while a
// four-vector step averages two vectors of each kind. The predicate stays the
// most selective in every vector, so the best order does not move with it.
func alternatingLineitem(d *Dataset, vs int) *Dataset {
	li := d.d.Lineitem
	var few, rest []int
	for i, q := range li.Column("l_quantity").I64() {
		if q < 10 {
			few = append(few, i)
		} else {
			rest = append(rest, i)
		}
	}
	vectors := (li.NumRows() + vs - 1) / vs
	per := len(few) / (2 * vectors)
	perm := make([]int, 0, li.NumRows())
	for v := 0; v < vectors; v++ {
		n := min(per, len(few))
		if v%2 == 0 {
			n = min(3*per, len(few))
		}
		m := min(vs-n, len(rest))
		perm = append(append(perm, few[:n]...), rest[:m]...)
		few, rest = few[n:], rest[m:]
	}
	perm = append(append(perm, few...), rest...)
	out := columnar.NewTable(li.Name())
	for _, c := range li.Columns() {
		switch c.Kind() {
		case columnar.Int64:
			out.MustAddColumn(columnar.NewInt64(c.Name(), datagen.ApplyPermInt64(c.I64(), perm)))
		case columnar.Date:
			out.MustAddColumn(columnar.NewDate(c.Name(), datagen.ApplyPermInt32(c.I32(), perm)))
		case columnar.Float64:
			out.MustAddColumn(columnar.NewFloat64(c.Name(), datagen.ApplyPermFloat64(c.F64(), perm)))
		default:
			panic(fmt.Sprintf("lineitem column %s of kind %v", c.Name(), c.Kind()))
		}
	}
	dd := *d.d
	dd.Lineitem = out
	return newDataset(&dd)
}
