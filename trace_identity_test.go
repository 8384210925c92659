package progopt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"progopt/internal/trace"
)

// The tracing acceptance criterion (pure observer): a run with Config.Trace
// set is bit-identical — results, cycles, optimizer stats, every PMU counter
// — to the same run untraced, across the Workers × fusion × exec-mode matrix
// and the served path; and identical configurations produce byte-identical
// trace files across runs and GOMAXPROCS.

// traceSetup builds a fresh engine over the determinism suite's data set and
// plan, optionally traced.
func traceSetup(t *testing.T, workers int, noFuse, traced bool) (*Engine, *Dataset, *Query) {
	t.Helper()
	cfg := Config{VectorSize: 1024, Workers: workers}
	if traced {
		cfg.Trace = &TraceOptions{}
	}
	e, err := newRef(cfg, refPath{noFuse: noFuse})
	if err != nil {
		t.Fatal(err)
	}
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
	return e, d, q
}

// TestTracePureObserver pins traced == untraced over the full matrix.
func TestTracePureObserver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, noFuse := range []bool{false, true} {
			for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
				name := fmt.Sprintf("workers=%d/nofuse=%v/%s", workers, noFuse, mode)
				t.Run(name, func(t *testing.T) {
					opts := ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}}
					eRef, _, qRef := traceSetup(t, workers, noFuse, false)
					defer eRef.Close()
					want, err := eRef.Exec(qRef, opts)
					if err != nil {
						t.Fatal(err)
					}
					eTr, _, qTr := traceSetup(t, workers, noFuse, true)
					defer eTr.Close()
					got, err := eTr.Exec(qTr, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name, want.Result, got.Result)
					sameStats(t, name, want.Stats, got.Stats)
					if want.Impl != got.Impl {
						t.Errorf("impl stats diverge: %+v vs %+v", want.Impl, got.Impl)
					}
					if eTr.Trace().NumEvents() == 0 {
						t.Error("traced run recorded no events")
					}
				})
			}
		}
	}
}

// TestTracePureObserverServed extends the pure-observer contract to the
// workload server: serving under tracing changes no outcome, latency, or
// counter.
func TestTracePureObserverServed(t *testing.T) {
	run := func(traced bool) ExecResult {
		e, d, _ := traceSetup(t, 4, false, traced)
		defer e.Close()
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
	want, got := run(false), run(true)
	sameResult(t, "served", want.Result, got.Result)
	sameStats(t, "served", want.Stats, got.Stats)
	if want.Served.LatencyCycles != got.Served.LatencyCycles {
		t.Errorf("latency diverges: %d vs %d", want.Served.LatencyCycles, got.Served.LatencyCycles)
	}
}

// TestTracePureObserverStored pins the tier-event path: tracing a stored run
// (block fetches reported to the core tracks) changes nothing.
func TestTracePureObserverStored(t *testing.T) {
	stcfg := &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16}
	run := func(traced bool) (ExecResult, *Engine) {
		cfg := Config{VectorSize: 1024, Workers: 4, Storage: stcfg}
		if traced {
			cfg.Trace = &TraceOptions{}
		}
		e, _, q := storedSetup(t, cfg, OrderNatural, storedQ6Plan())
		r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return r, e
	}
	want, eRef := run(false)
	defer eRef.Close()
	got, eTr := run(true)
	defer eTr.Close()
	sameResult(t, "stored", want.Result, got.Result)
	fetches := 0
	for _, tk := range eTr.tr.rec.Tracks() {
		for _, ev := range tk.Events() {
			if ev.Name == "tier-fetch" {
				fetches++
			}
		}
	}
	if fetches == 0 {
		t.Error("traced stored run recorded no tier-fetch events")
	}
	if uint64(fetches) != want.Storage.BlockFetches {
		t.Errorf("tier-fetch events %d != block fetches %d", fetches, want.Storage.BlockFetches)
	}
}

// traceBytes runs the reference progressive configuration traced and returns
// the exported Chrome JSON.
func traceBytes(t *testing.T) []byte {
	t.Helper()
	e, _, q := traceSetup(t, 4, false, true)
	defer e.Close()
	if _, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdentity pins the export: identical configurations produce
// byte-identical trace files across runs and GOMAXPROCS.
func TestTraceByteIdentity(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	ref := traceBytes(t)
	runtime.GOMAXPROCS(prev)
	for _, gmp := range detProcs {
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
			got := traceBytes(t)
			if !bytes.Equal(ref, got) {
				t.Errorf("trace files diverge: %d vs %d bytes", len(ref), len(got))
			}
		})
	}
	if !json.Valid(ref) {
		t.Error("exported trace is not valid JSON")
	}
}

// TestTraceChromeFormat checks the exported file is valid trace-event format:
// a traceEvents array whose entries carry name/ph/ts, with one named thread
// per simulated core plus the optimizer track.
func TestTraceChromeFormat(t *testing.T) {
	raw := traceBytes(t)
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "" || name == "" {
			t.Fatalf("event missing ph/name: %v", ev)
		}
		if ph == "M" {
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
			continue
		}
		if _, ok := ev["ts"]; !ok {
			t.Fatalf("event missing ts: %v", ev)
		}
	}
	for _, want := range []string{"core 0", "core 1", "core 2", "core 3", "optimizer"} {
		if !names[want] {
			t.Errorf("no thread_name metadata for track %q (have %v)", want, names)
		}
	}
}

// TestTraceReorderEvidence pins the acceptance criterion: a traced
// ModeProgressive run emits at least one reorder decision event carrying the
// PMU snapshot that justified it.
func TestTraceReorderEvidence(t *testing.T) {
	e, _, q := traceSetup(t, 1, false, true)
	defer e.Close()
	res, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Reorders == 0 {
		t.Fatal("progressive run on random order performed no reorders")
	}
	reorders := 0
	for i, ev := range e.tr.opt.Events() {
		if ev.Name != "reorder" {
			continue
		}
		reorders++
		keys := map[string]bool{}
		for _, a := range e.tr.opt.Args(i) {
			keys[a.Key] = true
		}
		for _, want := range []string{"from", "to", "br_not_taken", "br_mp_taken", "br_mp_not_taken", "l3_access"} {
			if !keys[want] {
				t.Errorf("reorder event lacks %q evidence: %v", want, e.tr.opt.Args(i))
			}
		}
	}
	if reorders != res.Stats.Reorders {
		t.Errorf("reorder events %d != Stats.Reorders %d", reorders, res.Stats.Reorders)
	}
	// The sample series retained on Stats is the same evidence stream.
	if len(res.Stats.Samples) == 0 || len(res.Stats.Samples) != res.Stats.Optimizations {
		t.Fatalf("Samples len %d, want %d (one per optimization)", len(res.Stats.Samples), res.Stats.Optimizations)
	}
	var prev uint64
	for i, s := range res.Stats.Samples {
		if s.Cycles < prev {
			t.Fatalf("sample %d clock went backwards: %d < %d", i, s.Cycles, prev)
		}
		prev = s.Cycles
		if m := s.Counters.Map(); m["br_not_taken"] != s.Counters.BrNotTaken || m["l3_access"] != s.Counters.L3Access || len(m) != 4 {
			t.Errorf("sample %d: Map() %v does not mirror %+v", i, m, s.Counters)
		}
		if s.Counters.BrNotTaken == 0 && s.Counters.L3Access == 0 {
			t.Errorf("sample %d carries no counter evidence", i)
		}
	}
}

// TestTraceExplainSummary checks Explain reports the per-query span summary
// of a traced execution.
func TestTraceExplainSummary(t *testing.T) {
	e, _, q := traceSetup(t, 1, false, true)
	defer e.Close()
	if _, err := e.Exec(q, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}}); err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Trace) == 0 {
		t.Fatal("Explain reports no trace summary after a traced Exec")
	}
	byName := map[string]TraceAgg{}
	for _, a := range ex.Trace {
		byName[a.Name] = a
	}
	if v, ok := byName["vector"]; !ok || v.Count == 0 || v.Cycles == 0 {
		t.Errorf("trace summary lacks vector spans: %+v", ex.Trace)
	}
	if _, ok := byName["sample"]; !ok {
		t.Errorf("trace summary lacks sampling events: %+v", ex.Trace)
	}
	if !strings.Contains(ex.String(), "trace:") {
		t.Errorf("Explain string lacks trace section:\n%s", ex.String())
	}
}

// TestTraceReset pins the per-experiment lifecycle: Reset clears events but
// keeps tracks, and the next run exports cleanly.
func TestTraceReset(t *testing.T) {
	e, _, q := traceSetup(t, 4, false, true)
	defer e.Close()
	if _, err := e.Exec(q, ExecOptions{Mode: ModeFixed}); err != nil {
		t.Fatal(err)
	}
	if e.Trace().NumEvents() == 0 {
		t.Fatal("no events before reset")
	}
	e.Trace().Reset()
	if n := e.Trace().NumEvents(); n != 0 {
		t.Fatalf("%d events survived reset", n)
	}
	if _, err := e.Exec(q, ExecOptions{Mode: ModeFixed}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("post-reset export is not valid JSON")
	}
}

// TestServerMetricsExposition checks the Prometheus text exposition: the
// expected instruments, exact counts, and latency quantiles.
func TestServerMetricsExposition(t *testing.T) {
	e, d, _ := traceSetup(t, 4, false, false)
	defer e.Close()
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plan := func() *Plan {
		return Scan("lineitem").
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
			Filter("l_discount", CmpLE, 0.05).
			Filter("l_quantity", CmpLT, 10).
			Sum("l_extendedprice * l_discount")
	}
	for i := 0; i < 3; i++ {
		tk, err := srv.Submit(d, plan(), ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"progopt_queries_completed 3",
		"progopt_plan_cache_hits 2",
		"progopt_plan_cache_misses 1",
		"progopt_feedback_stores 3",
		`progopt_query_latency_cycles{quantile="0.5"}`,
		`progopt_query_latency_cycles{quantile="0.99"}`,
		"progopt_query_latency_cycles_count 3",
		"progopt_query_latency_p95_millis",
		"progopt_makespan_millis",
		"# TYPE progopt_query_latency_cycles summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Exposition must be reproducible: a second write renders byte-identically.
	var buf2 bytes.Buffer
	if err := srv.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated exposition diverges")
	}
}

// TestTraceServiceEvents checks a traced served workload lands admission and
// completion events on the service track with monotone stamps per event kind.
func TestTraceServiceEvents(t *testing.T) {
	e, d, _ := traceSetup(t, 4, false, true)
	defer e.Close()
	srv, err := NewServer(e, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tk, err := srv.Submit(d, Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
		Filter("l_quantity", CmpLT, 10).
		Sum("l_extendedprice * l_discount"),
		ExecOptions{Mode: ModeMicroAdaptive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	var svc *trace.Track
	for _, trk := range e.tr.rec.Tracks() {
		if trk.Name() == "service" {
			svc = trk
		}
	}
	if svc == nil {
		t.Fatal("no service track")
	}
	seen := map[string]int{}
	for _, ev := range svc.Events() {
		seen[ev.Name]++
	}
	for _, want := range []string{"submit", "admit", "query"} {
		if seen[want] == 0 {
			t.Errorf("service track lacks %q events (have %v)", want, seen)
		}
	}
}

// TestTracedExecAllocBudget states the recorder's allocation budget: once its
// tracks are warm, a traced Exec on four cores allocates what the untraced
// one does plus a fixed per-Exec summary (Explain's per-name aggregates) plus
// at most 2 objects per 1 000 recorded events — typed args and the per-track
// arena leave nothing per event, per vector or per morsel, and a
// re-optimizing run's decision events (slice-valued args included) none per
// block.
func TestTracedExecAllocBudget(t *testing.T) {
	const vectors = 256
	for _, mode := range []Mode{ModeFixed, ModeProgressive} {
		measure := func(traced bool) (allocs float64, events int) {
			cfg := Config{VectorSize: 1024, Workers: 4}
			if traced {
				cfg.Trace = &TraceOptions{}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d, err := e.GenerateTPCH(vectors*1024, 37, OrderRandom)
			if err != nil {
				t.Fatal(err)
			}
			q, err := e.Compile(d, convergentPlan(d, false).Sum("l_extendedprice * l_discount"))
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				e.Trace().Reset()
				if _, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}}); err != nil {
					t.Fatal(err)
				}
				events = e.Trace().NumEvents()
			}
			run() // grow the tracks, their arg arenas and the exec scratch
			run()
			return testing.AllocsPerRun(5, run), events
		}
		untraced, _ := measure(false)
		traced, events := measure(true)
		if events < 3*vectors {
			t.Fatalf("%v: %d events for %d vectors; the budget needs a vector, a kernel and a morsel span each", mode, events, vectors)
		}
		const summary = 16 // measured 10 fixed, 14 progressive
		if budget := untraced + summary + 2*float64(events)/1000; traced > budget {
			t.Errorf("%v: traced Exec allocates %.1f times for %d events, untraced %.1f; budget %.1f",
				mode, traced, events, untraced, budget)
		}
	}
}
