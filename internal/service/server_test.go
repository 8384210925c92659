package service

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"progopt/internal/columnar"
	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/storage"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// bindFresh binds the queries, in order, on a one-core pool of their own: a
// server's pool never allocates, so queries reach it bound.
func bindFresh(t *testing.T, vs int, qs ...*exec.Query) {
	t.Helper()
	p, err := exec.NewParallel(cpu.ScaledXeon(), 1, vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if err := p.BindQuery(q); err != nil {
			t.Fatal(err)
		}
	}
}

func testQuery(t *testing.T, rows int, seed int64) *exec.Query {
	t.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	// Worst-ish initial order so progressive runs have something to fix.
	desc := make([]int, len(q.Ops))
	for i := range desc {
		desc[i] = len(desc) - 1 - i
	}
	qo, err := q.WithOrder(desc)
	if err != nil {
		t.Fatal(err)
	}
	return qo
}

// TestLoneFixedMatchesParallelRun: a query that has the pool to itself is
// bit-identical — results, cycles, PMU counters — to a dedicated
// Parallel.Run, even though the server chops it into scheduling quanta.
func TestLoneFixedMatchesParallelRun(t *testing.T) {
	const workers, vs = 4, 512
	q := testQuery(t, 64*vs, 11)
	prof := cpu.ScaledXeon()

	ref, err := exec.NewParallel(prof, workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(prof, workers, vs, Config{QuantumVectors: 7})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeFixed}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
		t.Errorf("results diverge: %d/%v vs %d/%v", got.Qualifying, got.Sum, want.Qualifying, want.Sum)
	}
	if got.Cycles != want.Cycles || got.Millis != want.Millis {
		t.Errorf("cycles diverge: %d/%v vs %d/%v", got.Cycles, got.Millis, want.Cycles, want.Millis)
	}
	if got.Counters != want.Counters {
		t.Errorf("counters diverge:\n got %v\nwant %v", got.Counters, want.Counters)
	}
	if got.Done != want.Cycles || got.Start != 0 {
		t.Errorf("timeline wrong: start %d done %d, want 0 and %d", got.Start, got.Done, want.Cycles)
	}
}

// TestLoneProgressiveMatchesDriver: same property for progressive execution
// against core.Run driving the query on a pool, including the optimizer stats.
func TestLoneProgressiveMatchesDriver(t *testing.T) {
	const workers, vs = 4, 512
	q := testQuery(t, 64*vs, 11)
	prof := cpu.ScaledXeon()
	opt := core.Options{ReopInterval: 5}

	ref, err := exec.NewParallel(prof, workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	r := core.NewRun(ref)
	if err := r.Begin(core.Spec{Query: q, Mode: core.ModeProgressive, Opt: opt}); err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(); err != nil {
		t.Fatal(err)
	}
	want, wantSt := r.Result, r.Stats()

	s, err := New(prof, workers, vs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeProgressive, Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
		t.Errorf("results diverge: %d/%v vs %d/%v", got.Qualifying, got.Sum, want.Qualifying, want.Sum)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("cycles diverge: %d vs %d", got.Cycles, want.Cycles)
	}
	if got.Counters != want.Counters {
		t.Errorf("counters diverge:\n got %v\nwant %v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Stats, wantSt) {
		t.Errorf("stats diverge:\n got %+v\nwant %+v", got.Stats, wantSt)
	}
}

// TestConcurrentTraceDeterministic: a fixed trace of overlapping queries
// yields identical outcomes and makespan on repeated simulations, no matter
// in which order the tickets are waited on.
func TestConcurrentTraceDeterministic(t *testing.T) {
	const workers, vs = 4, 512
	prof := cpu.ScaledXeon()
	q1 := testQuery(t, 24*vs, 5)
	q2 := testQuery(t, 32*vs, 6)
	q3 := testQuery(t, 16*vs, 7)

	type obs struct {
		Qual     int64
		Sum      float64
		Cycles   uint64
		Done     uint64
		Makespan uint64
	}
	bindFresh(t, vs, q1, q2, q3)
	run := func(waitOrder []int) []obs {
		s, err := New(prof, workers, vs, Config{MaxActive: 2})
		if err != nil {
			t.Fatal(err)
		}
		reqs := []Request{
			{Spec: core.Spec{Query: q1, Mode: core.ModeFixed}, Arrival: 0},
			{Spec: core.Spec{Query: q2, Mode: core.ModeProgressive, Opt: core.Options{ReopInterval: 5}}, Arrival: 1000},
			{Spec: core.Spec{Query: q3, Mode: core.ModeFixed}, Arrival: 2000},
		}
		tks := make([]*Ticket, len(reqs))
		for i, r := range reqs {
			tk, err := s.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			tks[i] = tk
		}
		out := make([]obs, len(tks))
		for _, i := range waitOrder {
			o, err := tks[i].Wait()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = obs{o.Qualifying, o.Sum, o.Cycles, o.Done, 0}
		}
		out[0].Makespan = s.Stats().MakespanCycles
		return out
	}

	a := run([]int{0, 1, 2})
	b := run([]int{2, 0, 1})
	c := run([]int{1, 2, 0})
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Errorf("trace not deterministic across wait orders:\n a %+v\n b %+v\n c %+v", a, b, c)
	}
}

// TestSharedPoolPreservesResults: queries admitted together still produce
// the same Qualifying/Sum as dedicated runs (scheduling may change cycles,
// never answers).
func TestSharedPoolPreservesResults(t *testing.T) {
	const workers, vs = 2, 512
	prof := cpu.ScaledXeon()
	q1 := testQuery(t, 24*vs, 5)
	q2 := testQuery(t, 32*vs, 6)

	ref, err := exec.NewParallel(prof, workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*exec.Query{q1, q2} {
		if err := ref.BindQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	w1, err := ref.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ref.Run(q2)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(prof, workers, vs, Config{MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.Submit(Request{Spec: core.Spec{Query: q1, Mode: core.ModeFixed}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(Request{Spec: core.Spec{Query: q2, Mode: core.ModeFixed}})
	if err != nil {
		t.Fatal(err)
	}
	o1, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if o1.Qualifying != w1.Qualifying || o1.Sum != w1.Sum {
		t.Errorf("q1 diverges under sharing: %d/%v vs %d/%v", o1.Qualifying, o1.Sum, w1.Qualifying, w1.Sum)
	}
	if o2.Qualifying != w2.Qualifying || o2.Sum != w2.Sum {
		t.Errorf("q2 diverges under sharing: %d/%v vs %d/%v", o2.Qualifying, o2.Sum, w2.Qualifying, w2.Sum)
	}
	st := s.Stats()
	if st.PeakActive != 2 {
		t.Errorf("peak active %d, want 2 (both admitted)", st.PeakActive)
	}
}

// TestAdmissionHonorsArrival: a query whose arrival lies beyond another
// query's whole runtime must not be activated early — otherwise it would
// reserve (and fast-forward) cores the present query should use. The
// present query therefore runs on the full pool, exactly like a dedicated
// run, and the future query starts at its arrival.
func TestAdmissionHonorsArrival(t *testing.T) {
	const workers, vs = 4, 512
	prof := cpu.ScaledXeon()
	q1 := testQuery(t, 24*vs, 5)
	q2 := testQuery(t, 16*vs, 7)

	ref, err := exec.NewParallel(prof, workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BindQuery(q1); err != nil {
		t.Fatal(err)
	}
	w1, err := ref.Run(q1)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(prof, workers, vs, Config{MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	bindFresh(t, vs, q2)
	farFuture := 100 * w1.Cycles
	t1, err := s.Submit(Request{Spec: core.Spec{Query: q1, Mode: core.ModeFixed}, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Submit(Request{Spec: core.Spec{Query: q2, Mode: core.ModeFixed}, Arrival: farFuture})
	if err != nil {
		t.Fatal(err)
	}
	o1, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if o1.Cycles != w1.Cycles || o1.Done != w1.Cycles {
		t.Errorf("present query did not get the whole pool: cycles %d done %d, want %d",
			o1.Cycles, o1.Done, w1.Cycles)
	}
	o2, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if o2.Start < farFuture {
		t.Errorf("future query started at %d, before its arrival %d", o2.Start, farFuture)
	}
}

// TestQueueLimitRejects: the admission controller sheds load beyond the
// queue limit.
func TestQueueLimitRejects(t *testing.T) {
	const vs = 512
	prof := cpu.ScaledXeon()
	q := testQuery(t, 8*vs, 5)
	s, err := New(prof, 1, vs, Config{MaxActive: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	bindFresh(t, vs, q)
	// Nothing is active until a Wait drives the scheduler, so both land in
	// the queue; the second overflows it.
	if _, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeFixed}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeFixed}}); err == nil {
		t.Fatal("second submission accepted beyond the queue limit")
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Submitted != 2 {
		t.Errorf("rejected=%d submitted=%d", st.Rejected, st.Submitted)
	}
}

// convergentQuery builds a scan whose three predicates have cleanly
// separated selectivities (~0.18 / ~0.5 / ~0.8) in the worst order, so a
// cold progressive run reliably reorders once and then confirms the order —
// the regime a feedback warm start is designed for.
func convergentQuery(t *testing.T, rows int, seed int64) *exec.Query {
	t.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	li := d.Lineitem
	return &exec.Query{Table: li, Ops: []exec.Op{
		&exec.Predicate{Col: li.Column("l_shipdate"), Op: exec.LE, I: int64(d.ShipdateCutoff(0.8)), Label: "ship80"},
		&exec.Predicate{Col: li.Column("l_discount"), Op: exec.LE, F: 0.05, Label: "disc<=.05"},
		&exec.Predicate{Col: li.Column("l_quantity"), Op: exec.LT, I: 10, Label: "qty<10"},
	}}
}

// TestFeedbackCarriesRejectedOrders: what validation rolled back in one run is
// not measured again by the next run of the same fingerprint. The cold run's
// §4.5 probe of its converged order is reverted; the warm run starts at that
// order with the rotation already rejected, applies no order its predecessor
// saw reverted, and so never pays for that revert again.
func TestFeedbackCarriesRejectedOrders(t *testing.T) {
	const workers, vs = 4, 512
	q := convergentQuery(t, 96*vs, 11)
	s, err := New(cpu.ScaledXeon(), workers, vs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bindFresh(t, vs, q)
	fp := Compute("lineitem", 1, []string{"q6-rejected"})
	run := func() (Outcome, *trace.Track) {
		t.Helper()
		rec := trace.New()
		opt := core.Options{ReopInterval: 5, ExploreEvery: 2, Trace: rec.NewTrack("optimizer")}
		tk, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeProgressive, Opt: opt}, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		o, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return o, opt.Trace
	}
	cold, _ := run()
	v, ok := s.feedback.Get(fp)
	if !ok {
		t.Fatal("the cold run left no feedback")
	}
	fb := v.(Feedback)
	if cold.Stats.Reverts == 0 || len(fb.Rejected) == 0 {
		t.Fatalf("cold run: %d reverts, rejected %v; workload too easy to test the carry-over", cold.Stats.Reverts, fb.Rejected)
	}
	warm, track := run()
	if !warm.WarmStarted || !reflect.DeepEqual(warm.WarmOrder, fb.Order) {
		t.Fatalf("warm start %v at %v, want %v", warm.WarmStarted, warm.WarmOrder, fb.Order)
	}
	for i, ev := range track.Events() {
		if ev.Name != "reorder" && ev.Name != "explore" {
			continue
		}
		for _, a := range track.Args(i) {
			to, _ := a.Value().([]int)
			if a.Key == "to" && slices.ContainsFunc(fb.Rejected, func(r []int) bool { return slices.Equal(r, to) }) {
				t.Errorf("warm run applied %v (%s), which its predecessor saw reverted", to, ev.Name)
			}
		}
	}
	if warm.Stats.RegretCycles >= cold.Stats.RegretCycles {
		t.Errorf("warm run regret %d cycles, cold %d: the regressions were paid for again", warm.Stats.RegretCycles, cold.Stats.RegretCycles)
	}
	if warm.Qualifying != cold.Qualifying || warm.Sum != cold.Sum {
		t.Errorf("warm start changed the answer: %d/%v vs %d/%v", warm.Qualifying, warm.Sum, cold.Qualifying, cold.Sum)
	}
}

// TestFeedbackWarmStart: the second submission of the same fingerprint
// starts at the converged order and settles in strictly fewer cycles.
func TestFeedbackWarmStart(t *testing.T) {
	const workers, vs = 4, 512
	prof := cpu.ScaledXeon()
	q := convergentQuery(t, 96*vs, 11)
	s, err := New(prof, workers, vs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bindFresh(t, vs, q)
	fp := Compute("lineitem", 1, []string{"q6-test"})
	opt := core.Options{ReopInterval: 5}

	t1, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeProgressive, Opt: opt}, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Fatal("first submission warm-started")
	}
	if cold.Stats.Reorders == 0 {
		t.Fatal("cold run never reordered; workload too easy to measure warm start")
	}

	t2, err := s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeProgressive, Opt: opt}, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("second submission did not warm-start")
	}
	if !reflect.DeepEqual(warm.WarmOrder, cold.Stats.FinalOrder) {
		t.Errorf("warm order %v, converged order %v", warm.WarmOrder, cold.Stats.FinalOrder)
	}
	if warm.Qualifying != cold.Qualifying || warm.Sum != cold.Sum {
		t.Errorf("warm start changed the answer: %d/%v vs %d/%v", warm.Qualifying, warm.Sum, cold.Qualifying, cold.Sum)
	}
	if warm.Stats.ConvergedAtCycles >= cold.Stats.ConvergedAtCycles {
		t.Errorf("warm run converged at %d cycles, cold at %d — warm start did not help",
			warm.Stats.ConvergedAtCycles, cold.Stats.ConvergedAtCycles)
	}
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warm run spent %d cycles, cold %d", warm.Cycles, cold.Cycles)
	}
	st := s.Stats()
	if st.FeedbackWarmStarts != 1 || st.FeedbackStores != 2 {
		t.Errorf("warm starts %d stores %d, want 1 and 2", st.FeedbackWarmStarts, st.FeedbackStores)
	}
}

// shapedFixture binds a query through a core that also allocates the per-core
// sort states and group tables the grouped and ordered tests submit (every
// pool afterwards finds the columns bound).
func shapedFixture(t *testing.T, workers, vs int) (q *exec.Query, sorts []*exec.Sort, groups []*exec.GroupBy) {
	t.Helper()
	q = testQuery(t, 48*vs, 11)
	binder := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
	err := binder.BindQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	alloc := binder.CPU()
	sorts, groups = make([]*exec.Sort, workers), make([]*exec.GroupBy, workers)
	for i := range sorts {
		keys := []exec.SortKey{{Col: q.Table.Column("l_extendedprice"), Desc: true}}
		if sorts[i], err = exec.NewSort(alloc, keys, 25, q.Agg, q.Table.NumRows(), vs); err != nil {
			t.Fatal(err)
		}
		if groups[i], err = exec.NewGroupBy(alloc, q.Table.Column("l_quantity"), q.Table.Column("l_extendedprice"), exec.KeyDomain{Groups: 50}); err != nil {
			t.Fatal(err)
		}
	}
	return q, sorts, groups
}

// driver returns the query driver of a dedicated pool. A test takes all its
// reference runs from one: Drive is a cold start, whatever ran before.
func driver(t *testing.T, workers, vs int) *core.Run {
	t.Helper()
	ref, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	return core.NewRun(ref)
}

// driven runs spec to completion on r's pool; the result is r's until the
// next run.
func driven(t *testing.T, r *core.Run, spec core.Spec) *core.Run {
	t.Helper()
	if err := r.Begin(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Drive(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestServedGroupedMatchesDriver: a grouped aggregation through Submit/Wait
// is the dedicated run — groups, result, counters, span — though the server
// cuts it into quanta, also when other queries are admitted with it.
func TestServedGroupedMatchesDriver(t *testing.T) {
	const workers, vs = 4, 512
	q, _, groups := shapedFixture(t, workers, vs)
	want := driven(t, driver(t, workers, vs), core.Spec{Query: q, Groups: groups})
	if len(want.Groups) == 0 {
		t.Fatal("reference produced no groups")
	}

	s, err := New(cpu.ScaledXeon(), workers, vs, Config{QuantumVectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Spec: core.Spec{Query: q, Groups: groups, Mode: core.ModeProgressive}}); err == nil {
		t.Error("adaptive grouped submission accepted")
	}
	if _, err := s.Submit(Request{Spec: core.Spec{Query: q, Groups: groups[:2]}}); err == nil {
		t.Error("two partial tables accepted for a four-core pool")
	}
	tk, err := s.Submit(Request{Spec: core.Spec{Query: q, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	lone, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if lone.Result != want.Result || !reflect.DeepEqual(lone.Groups, want.Groups) {
		t.Errorf("lone grouped query diverges from the dedicated run:\n got %+v\nwant %+v", lone.Result, want.Result)
	}
	if lone.Done-lone.Start != want.Cycles {
		t.Errorf("span %d..%d, want %d cycles", lone.Start, lone.Done, want.Cycles)
	}

	if s, err = New(cpu.ScaledXeon(), workers, vs, Config{MaxActive: 3, QuantumVectors: 3}); err != nil {
		t.Fatal(err)
	}
	short := testQuery(t, 8*vs, 3)
	bindFresh(t, vs, short)
	var tks []*Ticket
	for _, req := range []Request{
		{Spec: core.Spec{Query: q, Groups: groups}},
		{Spec: core.Spec{Query: short, Mode: core.ModeFixed}},
		{Spec: core.Spec{Query: q, Mode: core.ModeProgressive, Opt: core.Options{ReopInterval: 3}}},
		{Spec: core.Spec{Query: q, Groups: groups}, Arrival: 40000},
	} {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	outs := make([]Outcome, len(tks))
	for i, tk := range tks {
		if outs[i], err = tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The first grouped run starts from the pool's zero clocks: it is the
	// dedicated run. The second starts on cores the adaptive query left at
	// the clocks its last morsels ended: the same answer, another schedule.
	if g := outs[0]; g.Result != want.Result || !reflect.DeepEqual(g.Groups, want.Groups) {
		t.Errorf("grouped query 0 diverges from the dedicated run when admitted with others:\n got %+v\nwant %+v", g.Result, want.Result)
	}
	if g := outs[3]; g.Qualifying != want.Qualifying || g.Vectors != want.Vectors || !reflect.DeepEqual(g.Groups, want.Groups) {
		t.Errorf("grouped query 3 answers %d tuples over %d vectors, the dedicated run %d over %d, or its groups differ",
			g.Qualifying, g.Vectors, want.Qualifying, want.Vectors)
	}
	if outs[1].Groups != nil || outs[2].Groups != nil {
		t.Error("an ungrouped query returned groups")
	}
	// Admitted together, run one after the other in admission order: a query
	// starts on the first core the one before leaves, and ends after it.
	for i := 1; i < len(outs); i++ {
		if outs[i].Start < outs[i-1].Start || outs[i].Done < outs[i-1].Done {
			t.Errorf("query %d ran %d..%d, query %d %d..%d: want admission order, each on the whole pool",
				i-1, outs[i-1].Start, outs[i-1].Done, i, outs[i].Start, outs[i].Done)
		}
	}
	if st := s.Stats(); st.PeakActive != 3 {
		t.Errorf("peak active %d, want 3 (the grouped queries were admitted together)", st.PeakActive)
	}
}

// TestServedOrderedMatchesDriver: an ordered (Top-K) query through
// Submit/Wait is the dedicated run in fixed and in progressive mode, and its
// rows do not change when other queries are admitted with it.
func TestServedOrderedMatchesDriver(t *testing.T) {
	const workers, vs = 4, 512
	q, sorts, _ := shapedFixture(t, workers, vs)
	opt := core.Options{ReopInterval: 3}
	var rows []exec.SortedRow
	ref := driver(t, workers, vs)
	for _, mode := range []core.Mode{core.ModeFixed, core.ModeProgressive} {
		want := driven(t, ref, core.Spec{Query: q, Mode: mode, Opt: opt, Sorts: sorts})
		if rows = want.Sorted; len(rows) != 25 {
			t.Fatalf("%v: reference emitted %d rows, want 25", mode, len(rows))
		}
		s, err := New(cpu.ScaledXeon(), workers, vs, Config{QuantumVectors: 3})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.Submit(Request{Spec: core.Spec{Query: q, Sorts: sorts, Mode: mode, Opt: opt}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got.Result != want.Result || !reflect.DeepEqual(got.Sorted, want.Sorted) {
			t.Errorf("%v: lone ordered query diverges from the dedicated run:\n got %+v\nwant %+v", mode, got.Result, want.Result)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats()) {
			t.Errorf("%v: stepper stats diverge", mode)
		}
	}

	s, err := New(cpu.ScaledXeon(), workers, vs, Config{MaxActive: 3, QuantumVectors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Spec: core.Spec{Query: q, Sorts: sorts[:1]}}); err == nil {
		t.Error("one sort state accepted for a four-core pool")
	}
	short := testQuery(t, 8*vs, 3)
	bindFresh(t, vs, short)
	var tks []*Ticket
	for _, req := range []Request{
		{Spec: core.Spec{Query: q, Sorts: sorts, Mode: core.ModeProgressive, Opt: opt}},
		{Spec: core.Spec{Query: short, Mode: core.ModeFixed}},
		{Spec: core.Spec{Query: q, Mode: core.ModeFixed}},
		{Spec: core.Spec{Query: short, Mode: core.ModeFixed}, Arrival: 40000},
	} {
		tk, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for i, tk := range tks {
		o, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !reflect.DeepEqual(o.Sorted, rows) {
			t.Errorf("ordered query's rows changed when admitted with others")
		}
		if i != 0 && o.Sorted != nil {
			t.Errorf("query %d: an unordered query returned %d sorted rows", i, len(o.Sorted))
		}
	}
	if st := s.Stats(); st.PeakActive != 3 {
		t.Errorf("peak active %d, want 3 (the ordered query was admitted with others)", st.PeakActive)
	}
}

// panicAt wraps an operator and panics once the scan reaches row at.
type panicAt struct {
	exec.Op
	at int
}

func (p panicAt) Eval(c *cpu.CPU, row int) bool {
	if row >= p.at {
		panic(fmt.Sprintf("scan reached row %d", row))
	}
	return p.Op.Eval(c, row)
}

func (p panicAt) EvalBatch(c *cpu.CPU, site int, sel, out []int32) []int32 {
	if n := len(sel); n > 0 && int(sel[n-1]) >= p.at {
		panic(fmt.Sprintf("scan reached row %d", sel[n-1]))
	}
	return p.Op.EvalBatch(c, site, sel, out)
}

// TestPanicWakesEveryWaiter: a panic escaping a scheduling round surfaces in
// the goroutine that drove it, and the round's broadcast wakes every other
// waiter, so no Wait parks forever behind the poisoned server. One-vector
// quanta put the panic eight rounds in, after the other waiters have parked
// through rounds that retire nothing and so wake nobody.
func TestPanicWakesEveryWaiter(t *testing.T) {
	const workers, vs = 4, 512
	prof := cpu.ScaledXeon()
	q := testQuery(t, 16*vs, 5)
	poisoned := &exec.Query{Table: q.Table, Ops: slices.Clone(q.Ops), Agg: q.Agg}
	poisoned.Ops[0] = panicAt{Op: q.Ops[0], at: 8 * vs}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, err := New(prof, workers, vs, Config{QuantumVectors: 1})
			if err != nil {
				t.Fatal(err)
			}
			bindFresh(t, vs, q)
			tks := make([]*Ticket, 6)
			for i := range tks {
				spec := core.Spec{Query: q, Mode: core.ModeFixed}
				if i == 2 {
					spec.Query = poisoned
				}
				if tks[i], err = s.Submit(Request{Spec: spec}); err != nil {
					t.Fatal(err)
				}
			}
			panicked := make([]bool, len(tks))
			var wg sync.WaitGroup
			for i, tk := range tks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { panicked[i] = recover() != nil }()
					tk.Wait()
				}()
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("a Wait parked forever behind the panicking round")
			}
			if !slices.Contains(panicked, true) {
				t.Error("no waiter saw the operator's panic")
			}
			s.Close()
		})
	}
}

// breakAt wraps an operator and, once the scan reaches row at, removes the
// query's operator at position 0 (itself, already evaluated): the query
// passed validation at submission and admission, and the next vector's check
// fails it.
type breakAt struct {
	exec.Op
	q  *exec.Query
	at int
}

func (b breakAt) Eval(c *cpu.CPU, row int) bool {
	if row >= b.at {
		b.q.Ops[0] = nil
	}
	return b.Op.Eval(c, row)
}

func (b breakAt) EvalBatch(c *cpu.CPU, site int, sel, out []int32) []int32 {
	if n := len(sel); n > 0 && int(sel[n-1]) >= b.at {
		b.q.Ops[0] = nil
	}
	return b.Op.EvalBatch(c, site, sel, out)
}

// TestStepErrorFailsItsQueryAlone: a query whose step fails is retired with
// the error, and every other ticket — one admitted before it, one admitted
// with it, one queued behind it and warm-started after it failed — gets the
// outcome of a server that never received it. The failing vector runs inline
// in morsel order at GOMAXPROCS 1, so the operator is removed before any
// other morsel reads the query.
func TestStepErrorFailsItsQueryAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const workers, vs = 4, 512
	prof := cpu.ScaledXeon()
	fixed := testQuery(t, 24*vs, 5)
	adaptive := convergentQuery(t, 48*vs, 11)
	bindFresh(t, vs, fixed, adaptive)
	fp := Compute("lineitem", 1, []string{"step-error"})
	opt := core.Options{ReopInterval: 5}
	good := []Request{
		{Spec: core.Spec{Query: fixed, Mode: core.ModeFixed}},
		{Spec: core.Spec{Query: adaptive, Mode: core.ModeProgressive, Opt: opt}, Fingerprint: fp, Arrival: 1000},
		{Spec: core.Spec{Query: fixed, Mode: core.ModeFixed}, Arrival: 3000},
		{Spec: core.Spec{Query: adaptive, Mode: core.ModeProgressive, Opt: opt}, Fingerprint: fp, Arrival: 4000},
	}
	serve := func(withBad bool) ([]Outcome, error) {
		s, err := New(prof, workers, vs, Config{MaxActive: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		reqs := slices.Clone(good)
		if withBad {
			bad := &exec.Query{Table: fixed.Table, Ops: slices.Clone(fixed.Ops), Agg: fixed.Agg}
			bad.Ops[0] = breakAt{Op: fixed.Ops[0], q: bad}
			reqs = slices.Insert(reqs, 2, Request{Spec: core.Spec{Query: bad, Mode: core.ModeFixed}, Arrival: 2000})
		}
		tks := make([]*Ticket, len(reqs))
		for i, r := range reqs {
			if tks[i], err = s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		var outs []Outcome
		var badErr error
		for i, tk := range tks {
			o, err := tk.Wait()
			switch {
			case withBad && i == 2:
				badErr = err
			case err != nil:
				t.Fatalf("query %d: %v", i, err)
			default:
				outs = append(outs, o)
			}
		}
		if st := s.Stats(); st.Completed != len(good) {
			t.Errorf("%d queries completed, want %d", st.Completed, len(good))
		}
		return outs, badErr
	}
	want, _ := serve(false)
	got, err := serve(true)
	if err == nil || !strings.Contains(err.Error(), "nil operator") {
		t.Fatalf("failing query returned %v, want its step's error", err)
	}
	if !want[3].WarmStarted {
		t.Fatal("the last query did not warm-start; the feedback path is not covered")
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d diverges from the server that never saw the failing query:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStoredQueriesGetTheirOwnViews: the server builds each admitted stored
// query's view of the tier, its read-ahead stream, so two requests of one
// plan admitted together on a 4-core pool share no stream, and each starts
// on a cold one: the first is the solo run, and the second fetches, reads
// and evicts the same blocks. The first query's span holds its stall.
func TestStoredQueriesGetTheirOwnViews(t *testing.T) {
	const vs = 512
	prof := cpu.ScaledXeon()
	d, err := tpch.Generate(tpch.Config{Lineitems: 32 * vs, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := columnar.EncodeTable(d.Lineitem, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BindAll(cpu.MustNew(prof)); err != nil {
		t.Fatal(err)
	}
	d.Lineitem = tab
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := storage.Compile(enc, tab, q, vs, storage.Config{LatencyCycles: 300, BytesPerCycle: 8, ResidentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(workers, n int) []Outcome {
		s, err := New(prof, workers, vs, Config{MaxActive: n})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tks := make([]*Ticket, n)
		for i := range tks {
			if tks[i], err = s.Submit(Request{Spec: core.Spec{Query: q, Mode: core.ModeFixed}, Storage: plan}); err != nil {
				t.Fatal(err)
			}
		}
		outs := make([]Outcome, n)
		for i, tk := range tks {
			if outs[i], err = tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return outs
	}
	pair := serve(4, 2)
	solo := serve(4, 1)[0]
	want := solo.Storage.Counters()
	if want.BlockFetches == 0 || want.Evictions == 0 || want.StallCycles == 0 {
		t.Fatalf("solo run's tier counters %+v: nothing fetched, evicted or stalled; the comparison is vacuous", want)
	}
	if pair[0].Storage == pair[1].Storage {
		t.Error("the two queries share a stream")
	}
	// The first query found the pool idle: it is the solo run. The second
	// started on the clocks the first left, so its morsels met other cores
	// and its stall may differ, but it fetched, read and evicted the same.
	if got := pair[0].Storage.Counters(); got != want {
		t.Errorf("first query's tier counters %+v, want the solo run's %+v", got, want)
	}
	if got := pair[1].Storage.Counters(); got.BlockFetches != want.BlockFetches || got.BlockHits != want.BlockHits ||
		got.BytesFetched != want.BytesFetched || got.Evictions != want.Evictions {
		t.Errorf("second query's tier counters %+v, the solo run's %+v", got, want)
	}
	if pair[0].Done != solo.Done || pair[0].Cycles != solo.Cycles || pair[0].Done-pair[0].Start != pair[0].Cycles {
		t.Errorf("first query %d..%d, %d cycles; the solo run %d..%d, %d cycles", pair[0].Start, pair[0].Done, pair[0].Cycles, solo.Start, solo.Done, solo.Cycles)
	}
	if pair[1].Start == 0 || pair[1].Done <= pair[0].Done {
		t.Errorf("second query ran %d..%d, the first %d..%d: want it after the first", pair[1].Start, pair[1].Done, pair[0].Start, pair[0].Done)
	}
}

// TestResidentBytesFollowLatestDone: two stored queries admitted together
// run in arrival order, the larger first, though it was submitted second.
// Stats reports the residency of the one done later, the smaller, and each
// query's latency in completion order.
func TestResidentBytesFollowLatestDone(t *testing.T) {
	const vs = 512
	prof := cpu.ScaledXeon()
	c := cpu.MustNew(prof)
	stored := func(rows int) (*exec.Query, *storage.Plan) {
		d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := columnar.EncodeTable(d.Lineitem, 1024)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.BindAll(c); err != nil {
			t.Fatal(err)
		}
		d.Lineitem = tab
		q, err := exec.Q6(d)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := storage.Compile(enc, tab, q, vs, storage.Config{LatencyCycles: 300, BytesPerCycle: 8})
		if err != nil {
			t.Fatal(err)
		}
		return q, plan
	}
	bigQ, bigPlan := stored(32 * vs)
	smallQ, smallPlan := stored(8 * vs)
	// A quantum longer than either query: each finishes in one round.
	s, err := New(prof, 4, vs, Config{MaxActive: 2, QuantumVectors: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tks []*Ticket
	for _, r := range []Request{
		{Spec: core.Spec{Query: smallQ, Mode: core.ModeFixed}, Storage: smallPlan, Arrival: 1},
		{Spec: core.Spec{Query: bigQ, Mode: core.ModeFixed}, Storage: bigPlan},
	} {
		tk, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	var outs []Outcome
	for _, tk := range tks {
		o, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	residency := func(o Outcome) uint64 { return o.Storage.ResidentBytes() }
	small, big := outs[0], outs[1]
	if big.Start != 0 || big.Done >= small.Done || residency(big) == residency(small) {
		t.Fatalf("big query %d..%d (%d B), small %d..%d (%d B): want the big one first, the small one done later, residencies apart",
			big.Start, big.Done, residency(big), small.Start, small.Done, residency(small))
	}
	st := s.Stats()
	if st.ResidentBytes != residency(small) {
		t.Errorf("ResidentBytes = %d, want the small query's %d (the big one left %d)", st.ResidentBytes, residency(small), residency(big))
	}
	if want := []uint64{big.Done - big.Arrival, small.Done - small.Arrival}; !slices.Equal(st.LatencyCycles, want) {
		t.Errorf("LatencyCycles = %v, want %v", st.LatencyCycles, want)
	}
}
