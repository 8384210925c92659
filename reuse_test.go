package progopt

import (
	"reflect"
	"testing"
)

// reusePlans are the plan shapes of the reuse contract: a filter scan, a
// 3-table join graph, a top-100 ordering and a grouped aggregation.
func reusePlans(d *Dataset) []*Plan {
	return []*Plan{
		q6Plan(),
		Scan("lineitem").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("orders", "o_custkey", "customer").
			Filter("l_quantity", CmpLT, 30).
			Filter("o_orderdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
			Filter("c_acctbal", CmpGE, 0.0).
			Sum("l_extendedprice * l_discount"),
		sortTestPlan(d, 100),
		Scan("lineitem").Filter("l_discount", CmpGE, 0.02).GroupBy("l_quantity", "l_extendedprice"),
	}
}

// reuseEngine builds an engine and compiles every reuse plan on it, always in
// the same order: join tables, sort regions and group tables take simulated
// addresses as they are compiled, and two engines compare cycle for cycle
// only when they agree on them.
func reuseEngine(t *testing.T, cfg Config) (*Engine, *Dataset, []*Query) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	d, err := e.GenerateTPCH(40_000, 5, OrderSorted)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*Query
	for _, p := range reusePlans(d) {
		q, err := e.Compile(d, p)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	return e, d, qs
}

// TestReuseIsExact is the contract of Exec's cold start: whatever an engine
// ran before, a query returns exactly the ExecResult — cycles, PMU counters,
// samples, ledger, tier statistics — it returns as the first query of a new
// engine. Every plan shape × mode runs interleaved, three times over, on one
// engine per storage × Workers setting.
func TestReuseIsExact(t *testing.T) {
	stored := &StorageConfig{
		BlockRows: 2048, LatencyCycles: 300, BytesPerCycle: 8,
		ResidentBytes: 1 << 20, SkipScan: true, CompressedScan: true,
	}
	type cell struct {
		plan int
		mode Mode
	}
	var cells []cell
	for plan := 0; plan < 4; plan++ {
		for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
			if plan == 3 && mode != ModeFixed {
				continue // grouped plans run in fixed order only
			}
			cells = append(cells, cell{plan, mode})
		}
	}
	opts := func(m Mode) ExecOptions { return ExecOptions{Mode: m, Progressive: Progressive{Interval: 3}} }
	differing, total := 0, 0
	for _, storage := range []*StorageConfig{nil, stored} {
		for _, workers := range []int{1, 4} {
			cfg := Config{VectorSize: 1024, Workers: workers, Storage: storage}
			want := make([]ExecResult, len(cells))
			for i, c := range cells {
				e, _, qs := reuseEngine(t, cfg)
				res, err := e.Exec(qs[c.plan], opts(c.mode))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}
			e, _, qs := reuseEngine(t, cfg)
			differs := map[int]bool{}
			for rep := 0; rep < 3; rep++ {
				for i, c := range cells {
					got, err := e.Exec(qs[c.plan], opts(c.mode))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[i]) && !differs[i] {
						differs[i] = true
						t.Errorf("stored=%v workers=%d plan=%d %s, run %d on a used engine: %d cycles, on a new engine %d",
							storage != nil, workers, c.plan, c.mode, rep, got.Cycles, want[i].Cycles)
					}
				}
			}
			differing, total = differing+len(differs), total+len(cells)
		}
	}
	if differing > 0 {
		t.Errorf("%d of %d cells differ", differing, total)
	}
}

// TestSecondServerIsExact serves one submission trace on two servers built one
// after the other on one engine: the second returns what the first did. The
// plans are filter scans because each server compiles its own queries, and a
// join filter, sort region or group table compiled twice sits at two simulated
// addresses, which moves cache conflicts for a reason that is not reuse.
func TestSecondServerIsExact(t *testing.T) {
	e, d, _ := reuseEngine(t, Config{VectorSize: 1024, Workers: 4})
	plans := []*Plan{q6Plan(), q6ShipdatePlan(d.ShipdateCutoff(0.5)), q6ShipdatePlan(d.ShipdateCutoff(0.9))}
	serve := func() []ExecResult {
		srv, err := NewServer(e, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var tickets []*Ticket
		for i := 0; i < 12; i++ {
			opts := ExecOptions{Mode: Mode(i % 3), Progressive: Progressive{Interval: 3}}
			tk, err := srv.SubmitAt(d, plans[(i+i/3)%len(plans)], opts, uint64(i)*40_000)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		out := make([]ExecResult, len(tickets))
		for i, tk := range tickets {
			if out[i], err = tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	first, second := serve(), serve()
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("submission %d: first server %d cycles, done at %d; second %d, done at %d", i,
				first[i].Cycles, first[i].Served.Done, second[i].Cycles, second[i].Served.Done)
		}
	}
}

// TestTracedReuseStaysMonotone: Cold opens a new clock epoch but the clock
// keeps its value, so the spans of successive Execs on a traced engine follow
// one another on every core's track.
func TestTracedReuseStaysMonotone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e, _, qs := reuseEngine(t, Config{VectorSize: 1024, Workers: workers, Trace: &TraceOptions{}})
		for i := 0; i < 3; i++ {
			if _, err := e.Exec(qs[i], ExecOptions{Mode: Mode(i), Progressive: Progressive{Interval: 3}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range e.tr.cores {
			evs := tr.Events()
			if len(evs) < 3 {
				t.Fatalf("workers=%d %s: %d events after three queries", workers, tr.Name(), len(evs))
			}
			// An enclosing span is recorded when it ends, after the spans inside
			// it: compare each kind of span with its own predecessor.
			last := map[string]uint64{}
			for i, ev := range evs {
				if ev.Start < last[ev.Name] {
					t.Errorf("workers=%d %s: event %d (%s) starts at %d, the %s before it at %d",
						workers, tr.Name(), i, ev.Name, ev.Start, ev.Name, last[ev.Name])
					break
				}
				last[ev.Name] = ev.Start
			}
		}
	}
}
