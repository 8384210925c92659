package core

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/costmodel/markov"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
)

// The tests in this file drive the reoptimizer loop without executing a
// query: the stepper only ever consumes finished steps, so a stream of
// synthetic ones — counters, cost, whether an optimization point is due,
// whether the step may be validated — over a query on a one-row table, with
// idle engines to absorb the charges, reaches every decision.

const stepTuples = 1024

// stepperFixture builds a stepper over nOps predicates and the idle cores
// that pay for its decisions.
func stepperFixture(t testing.TB, nOps, cores int, micro bool, opt Options) (*BlockStepper, []*exec.Engine) {
	t.Helper()
	tb := columnar.NewTable("one")
	tb.MustAddColumn(columnar.NewInt64("a", []int64{1}))
	q := &exec.Query{Table: tb}
	for i := 0; i < nOps; i++ {
		q.Ops = append(q.Ops, &exec.Predicate{Col: tb.Column("a"), Op: exec.LT, I: int64(i)})
	}
	engines := make([]*exec.Engine, cores)
	for i := range engines {
		engines[i] = exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), stepTuples)
	}
	s, err := NewBlockStepper(q, cpu.ScaledXeon(), cores, micro, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, engines
}

// countersFor is the PMU delta a step over stepTuples tuples shows when the
// operators, in table order, have the given selectivities and run in the
// stepper's current order.
func countersFor(t testing.TB, s *BlockStepper, tableSels []float64) pmu.Sample {
	t.Helper()
	sels := make([]float64, len(s.curPerm))
	for i, p := range s.curPerm {
		sels[i] = tableSels[p]
	}
	cs := truthSample(t, stepTuples, s.curWidths, nil, markov.Paper(), sels)
	var d pmu.Sample
	d[pmu.BrNotTaken] = uint64(math.Round(cs.BNT))
	d[pmu.BrMPTaken] = uint64(math.Round(cs.MPTaken))
	d[pmu.BrMPNotTaken] = uint64(math.Round(cs.MPNotTaken))
	d[pmu.L3Access] = uint64(math.Round(cs.L3))
	d[pmu.BrTaken] = uint64(2*stepTuples - math.Round(cs.Qualifying))
	return d
}

// synthStep is one finished step fed to the stepper.
type synthStep struct {
	sels     []float64 // per operator, table order
	cost     uint64    // step makespan in cycles
	qual     int64     // tuples of stepTuples the step qualified
	vectors  int       // 0 means 1
	optPoint bool
	partial  bool // not eligible for validation
}

func feed(t testing.TB, s *BlockStepper, engines []*exec.Engine, st synthStep) uint64 {
	t.Helper()
	br := exec.BlockResult{Vectors: max(st.vectors, 1), MaxCycles: st.cost, Qualifying: st.qual, Counters: countersFor(t, s, st.sels)}
	extra, err := s.AfterBlock(br, stepTuples, nil, st.optPoint, !st.partial, engines[0].CPU(), engines)
	if err != nil {
		t.Fatal(err)
	}
	return extra
}

var (
	selsDescending = []float64{0.9, 0.5, 0.1} // best order [2 1 0]
	selsAscending  = []float64{0.1, 0.5, 0.9} // best order [0 1 2]
	selsMiddleLow  = []float64{0.5, 0.1, 0.9} // best order [1 0 2]
)

func wantOrder(t *testing.T, s *BlockStepper, want ...int) {
	t.Helper()
	if !slices.Equal(s.curPerm, want) {
		t.Fatalf("order %v, want %v (stats %+v)", s.curPerm, want, s.st)
	}
}

// scriptStep is one fed step and what must hold after it.
type scriptStep struct {
	synthStep
	order                        []int
	optimizations, reverts, held int
}

func runScript(t *testing.T, s *BlockStepper, eng []*exec.Engine, script []scriptStep) {
	t.Helper()
	for i, st := range script {
		before := s.st
		extra := feed(t, s, eng, st.synthStep)
		if !slices.Equal(s.curPerm, st.order) || s.st.Optimizations != st.optimizations || s.st.Reverts != st.reverts || s.st.HeldOff != st.held {
			t.Fatalf("step %d: order %v, %d optimizations, %d reverts, %d held off; want %v, %d, %d, %d",
				i, s.curPerm, s.st.Optimizations, s.st.Reverts, s.st.HeldOff, st.order, st.optimizations, st.reverts, st.held)
		}
		if s.st.HeldOff > before.HeldOff && s.st.Reverts == before.Reverts && extra != 0 {
			t.Fatalf("step %d: a held-off point charged %d cycles", i, extra)
		}
	}
}

var (
	selsLastLow  = []float64{0.3, 0.9, 0.1} // best order [2 0 1]
	selsFirstTop = []float64{0.9, 0.1, 0.5} // best order [1 2 0]
	start        = []int{0, 1, 2}
)

// at is a step at an optimization point, quiet one that is not.
func at(sels []float64, cost uint64) synthStep {
	return synthStep{sels: sels, cost: cost, optPoint: true}
}

// atQ is a step at an optimization point that qualified qual tuples.
func atQ(sels []float64, cost uint64, qual int64) synthStep {
	return synthStep{sels: sels, cost: cost, qual: qual, optPoint: true}
}

// TestOrderFlipsAllocateNothing: once the run has made the orders they go to,
// a reorder, a probe's rotation and a revert allocate nothing, and none
// overwrites the query the step before it ran under.
func TestOrderFlipsAllocateNothing(t *testing.T) {
	s, _ := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
	rotation, reverse := []int{1, 2, 0}, []int{2, 1, 0}
	// One period changes the order at every point and ends where it began.
	period := []func() error{
		func() error { return s.reorder(rotation) },
		func() error { return s.setOrder(s.prevPerm) }, // revert
		func() error { return s.reorder(rotation) },
		func() error { return s.reorder(rotation) },
		func() error { return s.reorder(rotation) },
		func() error { return s.reorder(reverse) },
		func() error { return s.reorder(reverse) },
	}
	for range 2 {
		for i, change := range period {
			ran := s.Query()
			ranOps := slices.Clone(ran.Ops)
			if err := change(); err != nil {
				t.Fatal(err)
			}
			q := s.Query()
			if q == ran || !slices.Equal(ran.Ops, ranOps) {
				t.Fatalf("change %d overwrote the query the last step ran under", i)
			}
			for j, p := range s.curPerm {
				if q.Ops[j] != s.base.Ops[p] || q.Table != s.base.Table {
					t.Fatalf("change %d: query is not the base in order %v", i, s.curPerm)
				}
			}
			if !slices.Equal(s.curWidths, opWidths(nil, q)) || !slices.Equal(s.curWeights, LoadWeights(nil, q)) {
				t.Fatalf("change %d: order caches stale", i)
			}
		}
		wantOrder(t, s, 0, 1, 2)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, change := range period {
			if err := change(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per %d order changes, want 0", allocs, len(period))
	}
}

// TestStepperRegretRules walks the three rules that bound the loop's regret
// through one run at ReopInterval 1, where every step validates and is an
// optimization point: a step that reverts does not estimate (its sample was
// taken under the rejected order); every order validation rolled back stays
// rejected until a reorder survives; and the k-th revert in a row sits out
// 2^k - 1 points, uncharged. A point whose estimate changes nothing starts
// the confirmation back-off (TestStepperConfirmationBackoff); the run sits
// those points out too.
func TestStepperRegretRules(t *testing.T) {
	s, eng := stepperFixture(t, 3, 2, false, Options{ReopInterval: 1})
	runScript(t, s, eng, []scriptStep{
		{at(selsDescending, 1000), []int{2, 1, 0}, 1, 0, 0},
		// Slower: reverted, and the reverting step's own point is sat out.
		{at(selsDescending, 2000), start, 1, 1, 1},
		{at(selsDescending, 1000), start, 1, 1, 2}, // 2^1 - 1 held off
		// [2 1 0] is rejected: estimating it again changes nothing, and the
		// first confirmation sits out one point.
		{at(selsDescending, 1000), start, 2, 1, 2},
		{at(selsDescending, 1000), start, 2, 1, 3},
		{at(selsMiddleLow, 1000), []int{1, 0, 2}, 3, 1, 3},
		{at(selsMiddleLow, 2000), start, 3, 2, 4}, // second revert in a row
		{at(selsMiddleLow, 1000), start, 3, 2, 5},
		{at(selsMiddleLow, 1000), start, 3, 2, 6},
		{at(selsMiddleLow, 1000), start, 3, 2, 7}, // 2^2 - 1 held off
		// Both rejected orders are remembered, not only the last.
		{at(selsDescending, 1000), start, 4, 2, 7},
		{at(selsDescending, 1000), start, 4, 2, 8},
		{at(selsMiddleLow, 1000), start, 5, 2, 8},
		{at(selsMiddleLow, 1000), start, 5, 2, 9},
		{at(selsMiddleLow, 1000), start, 5, 2, 10},
		{at(selsMiddleLow, 1000), start, 5, 2, 11}, // second confirmation: 2^2 - 1
		{at(selsFirstTop, 1000), []int{1, 2, 0}, 6, 2, 11},
		{at(selsFirstTop, 2000), start, 6, 3, 12},
		{at(selsFirstTop, 1000), start, 6, 3, 13},
		{at(selsFirstTop, 1000), start, 6, 3, 14},
		{at(selsFirstTop, 1000), start, 6, 3, 15},
		{at(selsFirstTop, 1000), start, 6, 3, 16},
		{at(selsFirstTop, 1000), start, 6, 3, 17},
		{at(selsFirstTop, 1000), start, 6, 3, 18},
		{at(selsFirstTop, 1000), start, 6, 3, 19}, // 2^3 - 1 held off
		// A reorder that survives validation: the data moved. The set is
		// emptied and the back-off reset, so [2 1 0] may be tried again and
		// its revert sits out one point, not fifteen.
		{at(selsLastLow, 1000), []int{2, 0, 1}, 7, 3, 19},
		{at(selsDescending, 900), []int{2, 1, 0}, 8, 3, 19},
		{at(selsDescending, 2000), []int{2, 0, 1}, 8, 4, 20},
		{at(selsDescending, 900), []int{2, 0, 1}, 8, 4, 21},
		{at(selsDescending, 900), []int{2, 0, 1}, 9, 4, 21},
	})
	if st := s.Stats(); st.Reorders != 5 || st.RevertedCycles != 4*2000 || st.RegretCycles != 3*1000+1100 {
		t.Fatalf("stats %+v, want 5 reorders, 8000 reverted and 4100 regret cycles", st)
	}
}

// TestStepperDataMoved: the rejected set and the back-off are verdicts about
// the data they were measured on. The qualifying share of a step does not
// depend on the operator order, so a sat-out point whose share has left the
// reverted step's by more than chance allows ends both and estimates; one
// that wobbles within chance sits out as before.
func TestStepperDataMoved(t *testing.T) {
	for _, tc := range []struct {
		name  string
		qual  int64 // of the sat-out point, against 100 of 1024 at the revert
		moved bool
	}{
		{"same share", 100, false},
		{"within chance", 140, false}, // 2.7 standard errors
		{"fell to nothing", 0, true},
		{"doubled", 200, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
			runScript(t, s, eng, []scriptStep{
				{atQ(selsDescending, 1000, 100), []int{2, 1, 0}, 1, 0, 0},
				{atQ(selsDescending, 2000, 100), start, 1, 1, 1},
				{atQ(selsDescending, 1000, 100), start, 1, 1, 2},
				{atQ(selsMiddleLow, 1000, 100), []int{1, 0, 2}, 2, 1, 2},
				{atQ(selsMiddleLow, 2000, 100), start, 2, 2, 3}, // three points to sit out
			})
			feed(t, s, eng, atQ(selsDescending, 1000, tc.qual))
			if !tc.moved {
				wantOrder(t, s, start...)
				if s.st.HeldOff != 4 || s.st.Optimizations != 2 || len(s.rejected) != 2 || s.revert.k != 2 {
					t.Fatalf("a share within chance ended the streak: %+v, rejected %v, back-off %d", s.st, s.rejected, s.revert.k)
				}
				return
			}
			// The point estimates, and [2 1 0] — rejected a moment ago — is
			// applied again: that verdict was about other data.
			wantOrder(t, s, 2, 1, 0)
			if s.st.HeldOff != 3 || s.st.Optimizations != 3 || len(s.rejected) != 0 || s.revert != (backoff{}) {
				t.Fatalf("moved data left the streak standing: %+v, rejected %v, back-off %+v", s.st, s.rejected, s.revert)
			}
		})
	}
}

// TestStepperConfirmationBackoff: the k-th point in a row whose estimate
// changes nothing sits out the next 2^k - 1 points. A sat-out point takes no
// sample, runs no estimator and charges nothing, but counts as held off and
// toward the probe's cadence. A point whose step qualifies a share the last
// confirming step's could not have ends the run and samples; so does, for the
// points after it, any plan change.
func TestStepperConfirmationBackoff(t *testing.T) {
	// sitOut feeds n points that must all be sat out.
	sitOut := func(t *testing.T, s *BlockStepper, eng []*exec.Engine, n int, st synthStep) {
		t.Helper()
		for i := 0; i < n; i++ {
			before, stable, c0 := s.st, s.stableBlocks, eng[0].CPU().Cycles()
			extra := feed(t, s, eng, st)
			if extra != 0 || eng[0].CPU().Cycles() != c0 || s.st.Optimizations != before.Optimizations ||
				len(s.st.Samples) != len(before.Samples) || s.st.SampleCycles != before.SampleCycles {
				t.Fatalf("sat-out point %d of %d charged %d cycles, %d -> %d optimizations", i+1, n, extra, before.Optimizations, s.st.Optimizations)
			}
			if s.st.HeldOff != before.HeldOff+1 || s.stableBlocks != stable+1 {
				t.Fatalf("sat-out point %d of %d: held off %d -> %d, stable %d -> %d", i+1, n, before.HeldOff, s.st.HeldOff, stable, s.stableBlocks)
			}
		}
	}
	// confirm feeds one point that must estimate and change nothing.
	confirm := func(t *testing.T, s *BlockStepper, eng []*exec.Engine, st synthStep) {
		t.Helper()
		opt, order := s.st.Optimizations, slices.Clone(s.curPerm)
		if extra := feed(t, s, eng, st); extra == 0 || s.st.Optimizations != opt+1 || !slices.Equal(s.curPerm, order) {
			t.Fatalf("point did not confirm: extra %d, optimizations %d -> %d, order %v -> %v", extra, opt, s.st.Optimizations, order, s.curPerm)
		}
	}

	t.Run("doubles", func(t *testing.T) {
		s, eng := stepperFixture(t, 3, 2, false, Options{ReopInterval: 1})
		for k := 1; k <= 4; k++ {
			confirm(t, s, eng, atQ(selsAscending, 1000, 100))
			if s.confirm.k != k {
				t.Fatalf("%d confirmations, want %d", s.confirm.k, k)
			}
			sitOut(t, s, eng, 1<<k-1, atQ(selsAscending, 1000, 100))
		}
		if s.st.Optimizations != 4 || s.st.HeldOff != 1+3+7+15 || s.st.ConvergedAtCycles != 0 {
			t.Fatalf("stats %+v, want 4 estimates and 26 points sat out", s.st)
		}
	})

	t.Run("moved data", func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			qual  int64 // of the point, against 100 of 1024 at the confirmation
			moved bool
		}{
			{"within chance", 140, false},
			{"doubled", 200, true},
			{"fell to nothing", 0, true},
		} {
			t.Run(tc.name, func(t *testing.T) {
				s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
				confirm(t, s, eng, atQ(selsAscending, 1000, 100))
				sitOut(t, s, eng, 1, atQ(selsAscending, 1000, 100))
				confirm(t, s, eng, atQ(selsAscending, 1000, 100))
				sitOut(t, s, eng, 1, atQ(selsAscending, 1000, 100)) // one of three
				if !tc.moved {
					sitOut(t, s, eng, 1, atQ(selsAscending, 1000, tc.qual))
					return
				}
				// The point samples at once; its order stands, so it is the
				// first confirmation of a new run.
				confirm(t, s, eng, atQ(selsAscending, 1000, tc.qual))
				if s.confirm.k != 1 || s.confirm.left != 1 || s.confirm.q != tc.qual {
					t.Fatalf("after moved data: %d confirmations, %d to sit out, reference %d", s.confirm.k, s.confirm.left, s.confirm.q)
				}
			})
		}
	})

	t.Run("plan changes reset", func(t *testing.T) {
		s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
		confirm(t, s, eng, at(selsAscending, 1000))
		sitOut(t, s, eng, 1, at(selsAscending, 1000))
		confirm(t, s, eng, at(selsAscending, 1000))
		sitOut(t, s, eng, 3, at(selsAscending, 1000))
		// A reorder.
		feed(t, s, eng, at(selsDescending, 1000))
		wantOrder(t, s, 2, 1, 0)
		if s.confirm.k != 0 || s.confirm.left != 0 {
			t.Fatalf("a reorder left %d confirmations, %d to sit out", s.confirm.k, s.confirm.left)
		}
		// The reorder survives, the point after it confirms; then the data
		// turns, the order is changed again and that change is reverted.
		confirm(t, s, eng, at(selsDescending, 900))
		feed(t, s, eng, at(selsDescending, 900)) // sat out
		feed(t, s, eng, at(selsAscending, 900))
		wantOrder(t, s, 0, 1, 2)
		feed(t, s, eng, at(selsAscending, 2000))
		wantOrder(t, s, 2, 1, 0)
		if s.st.Reverts != 1 || s.confirm.k != 0 || s.confirm.left != 0 {
			t.Fatalf("%d reverts, %d confirmations, %d to sit out; want a revert that leaves none", s.st.Reverts, s.confirm.k, s.confirm.left)
		}

		// An implementation switch. A rare first predicate keeps the
		// branching scan.
		rare := []float64{0.02, 0.5, 0.9}
		s, eng = stepperFixture(t, 3, 1, true, Options{ReopInterval: 1})
		confirm(t, s, eng, at(rare, 1000))
		sitOut(t, s, eng, 1, at(rare, 1000))
		confirm(t, s, eng, at(rare, 1000))
		if s.Impl() != exec.ImplBranching || s.confirm.k != 2 {
			t.Fatalf("impl %v, %d confirmations; want two on the branching scan", s.Impl(), s.confirm.k)
		}
		sitOut(t, s, eng, 3, at(rare, 1000))
		feed(t, s, eng, at([]float64{0.5, 0.5, 0.5}, 1000))
		if s.Impl() != exec.ImplBranchFree || s.confirm.k != 0 || s.confirm.left != 0 {
			t.Fatalf("impl %v, %d confirmations, %d to sit out; want a switch that leaves none", s.Impl(), s.confirm.k, s.confirm.left)
		}
	})
}

// TestStepperUnreachedOperatorFollowsItsKiller: behind an operator that lets
// nothing through no tuple is measured, and whatever the solver says about
// the operators there is arbitrary. They take the killer's estimate, so the
// ranking moves them with it — directly behind, in their current order —
// instead of scattering them by the noise.
func TestStepperUnreachedOperatorFollowsItsKiller(t *testing.T) {
	s, eng := stepperFixture(t, 4, 1, false, Options{ReopInterval: 1})
	feed(t, s, eng, at([]float64{0.9, 0, 0.7, 0.3}, 1000))
	wantOrder(t, s, 1, 2, 3, 0)
	est := s.st.LastEstimate
	if est[1] > 0.01 || est[2] != est[1] || est[3] != est[1] {
		t.Fatalf("estimate %v: operators 2 and 3 saw no tuple and must read as operator 1 does", est)
	}
}

// TestStepperRevertingStepChargesOnlyTheRecompile: the step that reverts
// pays for re-establishing the previous order and nothing else — no sample,
// no estimate — and ConvergedAtCycles is the clock at the end of that step.
func TestStepperRevertingStepChargesOnlyTheRecompile(t *testing.T) {
	s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
	clock := uint64(1000) + feed(t, s, eng, at(selsDescending, 1000))
	if s.st.ConvergedAtCycles != clock {
		t.Fatalf("converged at %d after the reorder, clock %d", s.st.ConvergedAtCycles, clock)
	}
	sampled, c0 := s.st.SampleCycles, eng[0].CPU().Cycles()
	extra := feed(t, s, eng, at(selsDescending, 2000))
	clock += 2000 + extra
	wantOrder(t, s, 0, 1, 2)
	if charged := eng[0].CPU().Cycles() - c0; charged != extra || extra != 500 || s.st.SampleCycles != sampled {
		t.Fatalf("extra %d, core charged %d, sampling %d -> %d: want the recompile (500) alone", extra, charged, sampled, s.st.SampleCycles)
	}
	if s.st.ConvergedAtCycles != clock || s.accounted != clock {
		t.Fatalf("converged at %d, accounted %d, want the step's end %d", s.st.ConvergedAtCycles, s.accounted, clock)
	}
	// A quiet step moves the clock but not the convergence point.
	feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000})
	if s.st.ConvergedAtCycles != clock {
		t.Fatalf("converged at %d moved without a change (was %d)", s.st.ConvergedAtCycles, clock)
	}
}

// TestStepperProbeRules: the §4.5 probe obeys the same rules — a rejected
// rotation is not probed again, and the back-off sits out a due probe.
func TestStepperProbeRules(t *testing.T) {
	s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1, ExploreEvery: 1})
	runScript(t, s, eng, []scriptStep{
		{at(selsAscending, 1000), start, 1, 0, 0},          // confirms the order
		{at(selsAscending, 1000), []int{1, 2, 0}, 1, 0, 0}, // probes instead of estimating
		{at(selsAscending, 2000), start, 1, 1, 1},          // slower: reverted, remembered
		{at(selsAscending, 1000), start, 1, 1, 2},          // a probe is due, the back-off holds it
		// Due again, the rotation is rejected: the point estimates, or sits
		// out when the order was just confirmed.
		{at(selsAscending, 1000), start, 2, 1, 2},
		{at(selsAscending, 1000), start, 2, 1, 3},
		{at(selsAscending, 1000), start, 3, 1, 3},
	})
	if s.st.Explorations != 1 {
		t.Fatalf("%d explorations, want 1", s.st.Explorations)
	}
}

// TestStepperGainGate: a proposal whose predicted saving validation could
// not tell from noise is not worth a recompile and a step at risk.
func TestStepperGainGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sels []float64
		want []int
	}{
		// Swapping the last two saves 0.2 * (0.9 - 0.895) of 1 + 0.2 + 0.18 loads.
		{"marginal", []float64{0.2, 0.9, 0.895}, []int{0, 1, 2}},
		{"worth it", []float64{0.2, 0.9, 0.5}, []int{0, 2, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
			feed(t, s, eng, at(tc.sels, 1000))
			wantOrder(t, s, tc.want...)
			if s.st.Optimizations != 1 {
				t.Fatalf("%d optimizations, want 1", s.st.Optimizations)
			}
		})
	}
}

// TestStepperWarmStart: a run started from a predecessor's feedback begins
// at its order and never applies an order the predecessor saw reverted.
func TestStepperWarmStart(t *testing.T) {
	s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
	if err := s.WarmStart([]int{2, 0, 1}, exec.ImplBranchFree, [][]int{{2, 1, 0}, {0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if s.Impl() != exec.ImplBranching {
		t.Fatal("a progressive stepper took the warm implementation")
	}
	runScript(t, s, eng, []scriptStep{
		{at(selsDescending, 1000), []int{2, 0, 1}, 1, 0, 0},
		{at(selsDescending, 1000), []int{2, 0, 1}, 1, 0, 1}, // confirmed once
		{at(selsAscending, 1000), []int{2, 0, 1}, 2, 0, 1},
		{at(selsAscending, 1000), []int{2, 0, 1}, 2, 0, 2},
		{at(selsAscending, 1000), []int{2, 0, 1}, 2, 0, 3},
		{at(selsAscending, 1000), []int{2, 0, 1}, 2, 0, 4}, // twice
		{at(selsMiddleLow, 1000), []int{1, 0, 2}, 3, 0, 4},
	})
	if st := s.Stats(); st.Reorders != 1 || !slices.Equal(st.FinalOrder, []int{1, 0, 2}) {
		t.Fatalf("stats %+v, want the one order outside the rejected set", st)
	}
	if err := s.WarmStart([]int{0, 0, 1}, exec.ImplBranching, nil); err == nil {
		t.Fatal("a warm order that is no permutation was accepted")
	}
}

// TestStepperSingleOperatorNeverProbes: one operator has no other order, so
// a due probe must not charge a recompile, count an exploration, or set up a
// revert to the same order. Its points estimate or sit out under the
// confirmation back-off, as a run without probes does.
func TestStepperSingleOperatorNeverProbes(t *testing.T) {
	s, eng := stepperFixture(t, 1, 1, false, Options{ReopInterval: 1, ExploreEvery: 1})
	for i := 0; i < 6; i++ {
		feed(t, s, eng, synthStep{sels: []float64{0.5}, cost: uint64(1000 + 500*i), optPoint: true})
	}
	if st := s.Stats(); st.Explorations != 0 || st.Reverts != 0 || st.Optimizations != 2 || st.HeldOff != 4 || st.ConvergedAtCycles != 0 {
		t.Fatalf("stats %+v, want two plain estimations, four points sat out and no plan change", st)
	}
}

// TestStepperBranchFreeResample: branch-free steps carry no branch signal, so
// no estimate runs on them; every third optimization point returns to the
// branching scan for one sampling window.
func TestStepperBranchFreeResample(t *testing.T) {
	s, eng := stepperFixture(t, 3, 2, true, Options{ReopInterval: 1})
	mid := []float64{0.5, 0.5, 0.5}
	feed(t, s, eng, synthStep{sels: mid, cost: 1000, optPoint: true})
	if s.Impl() != exec.ImplBranchFree {
		t.Fatalf("mid-selectivity estimate %v kept the branching scan", s.st.LastEstimate)
	}
	for point := 1; point <= 3; point++ {
		feed(t, s, eng, synthStep{sels: mid, cost: 1000, optPoint: true})
		want := exec.ImplBranchFree
		if point == 3 {
			want = exec.ImplBranching
		}
		if s.Impl() != want {
			t.Fatalf("after branch-free point %d: impl %v, want %v", point, s.Impl(), want)
		}
	}
	if st := s.Stats(); st.Optimizations != 1 || st.ImplSwitches != 2 || st.BranchFreeVectors != 3 || st.BranchingVectors != 1 {
		t.Fatalf("stats %+v, want 1 optimization, 2 switches, 3 branch-free and 1 branching vectors", st)
	}
	feed(t, s, eng, synthStep{sels: mid, cost: 1000, optPoint: true})
	if st := s.Stats(); st.Optimizations != 2 || s.Impl() != exec.ImplBranchFree {
		t.Fatalf("sampling window did not estimate and return to branch-free: %+v", st)
	}
}

// TestStepperValidationEligibility: whether a step's cost may be held
// against the previous one's is the caller's input. A partial last vector
// never reverts; a short last block still does.
func TestStepperValidationEligibility(t *testing.T) {
	for _, tc := range []struct {
		name        string
		blocks      bool
		last        synthStep
		wantReverts int
	}{
		{"partial last vector", false, synthStep{sels: selsDescending, cost: 5000, partial: true}, 0},
		{"full vector", false, synthStep{sels: selsDescending, cost: 5000}, 1},
		{"short last block", true, synthStep{sels: selsDescending, cost: 5000, vectors: 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
			first := synthStep{sels: selsDescending, cost: 1000, optPoint: true}
			if tc.blocks {
				first.vectors, first.cost = 8, 8000
			}
			feed(t, s, eng, first)
			wantOrder(t, s, 2, 1, 0)
			feed(t, s, eng, tc.last)
			if s.st.Reverts != tc.wantReverts {
				t.Fatalf("%d reverts, want %d", s.st.Reverts, tc.wantReverts)
			}
			if s.pendingValidation {
				t.Fatal("the validation is still pending after the next step")
			}
		})
	}
}

// TestStepperZeroCostStep: a step made only of zone-map-skipped vectors is
// neither a verdict nor a yardstick, one vector or a block of them alike. The
// pending validation waits for the first step that cost anything, is held
// against the last one that did, and holds the optimization point meanwhile.
func TestStepperZeroCostStep(t *testing.T) {
	for _, tc := range []struct {
		name        string
		vectors     int
		verdictCost uint64
		wantReverts int
	}{
		{"vector, worse", 1, 2000, 1},
		{"vector, no worse", 1, 1000, 0},
		{"block, worse", 8, 16000, 1},
		{"block, no worse", 8, 8000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := stepperFixture(t, 3, 2, false, Options{ReopInterval: 1})
			feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000 * uint64(tc.vectors), vectors: tc.vectors, optPoint: true})
			wantOrder(t, s, 2, 1, 0)
			for i := 0; i < 2; i++ {
				if extra := feed(t, s, eng, synthStep{sels: selsMiddleLow, vectors: tc.vectors, optPoint: true}); extra != 0 {
					t.Fatalf("a skipped step charged %d cycles", extra)
				}
				wantOrder(t, s, 2, 1, 0)
				if !s.pendingValidation || s.prevCostPerVec != 1000 || s.st.Optimizations != 1 {
					t.Fatalf("skipped step %d: pending %v, yardstick %v, %d optimizations", i, s.pendingValidation, s.prevCostPerVec, s.st.Optimizations)
				}
			}
			feed(t, s, eng, synthStep{sels: selsDescending, cost: tc.verdictCost, vectors: tc.vectors})
			if s.st.Reverts != tc.wantReverts || s.pendingValidation {
				t.Fatalf("%d reverts, want %d (pending %v)", s.st.Reverts, tc.wantReverts, s.pendingValidation)
			}
		})
	}
}

// FuzzStepperInvariants feeds the stepper arbitrary step streams — counters
// that need not be consistent with any selectivities, costs, schedules — and
// checks what must hold whatever the evidence says.
func FuzzStepperInvariants(f *testing.F) {
	f.Fuzz(func(t *testing.T, opsRaw, flags, explore uint8, stream []byte) {
		nOps := int(opsRaw)%5 + 1
		micro, serial, stationary := flags&1 != 0, flags&2 != 0, flags&64 != 0
		cores := 1
		if !serial {
			cores += int(flags >> 4 & 3)
		}
		s, engines := stepperFixture(t, nOps, cores, micro,
			Options{ReopInterval: 1, ExploreEvery: int(explore % 4)})
		if flags&4 != 0 {
			if err := s.WarmStart(identity(nOps), exec.ImplBranchFree, nil); err != nil {
				t.Fatal(err)
			}
		}
		var clock, converged uint64
		// points counts the stationary points; since and estimates the points
		// and the estimates since the last plan change.
		points, since, estimates := 0, 0, 0
		// Seven bytes a step: four counters, the cost, the vector count, and
		// the schedule bits. Sixty-four steps reach every state; longer
		// streams only slow the mutator down.
		stream = stream[:min(len(stream), 64*7)]
		for ; len(stream) >= 7; stream = stream[7:] {
			b := stream[:7]
			var d pmu.Sample
			d[pmu.BrNotTaken] = uint64(b[0]) * stepTuples * uint64(nOps) / 255
			d[pmu.BrMPTaken] = uint64(b[1]) * stepTuples / 255
			d[pmu.BrMPNotTaken] = uint64(b[2]) * stepTuples / 255
			d[pmu.L3Access] = uint64(b[3]) * stepTuples / 64
			d[pmu.BrTaken] = uint64(stepTuples) + uint64(b[0]^b[1])*stepTuples/255
			br := exec.BlockResult{Vectors: 1, MaxCycles: uint64(b[4]) * 100, Qualifying: int64(b[5]>>3) * 32, Counters: d}
			if !serial {
				br.Vectors += int(b[5] % 8)
			}
			optPoint, validate := b[6]&1 != 0, b[6]&2 != 0 || !serial
			if stationary {
				// Whatever the counters say, the starting order is the best
				// one and every other costs twice as much, at every point, and
				// every step qualifies the same share.
				optPoint, validate = true, true
				br.Qualifying = 100
				br.MaxCycles = 1000 * uint64(br.Vectors)
				if !slices.Equal(s.curPerm, identity(nOps)) {
					br.MaxCycles *= 2
				}
				points++
			}

			before, pending, impl := s.st, s.pendingValidation, s.Impl()
			starts := make([]uint64, cores)
			for i, e := range engines {
				starts[i] = e.CPU().Cycles()
			}
			extra, err := s.AfterBlock(br, stepTuples, nil, optPoint, validate, engines[0].CPU(), engines)
			if err != nil {
				t.Fatal(err)
			}
			clock += br.MaxCycles + extra
			after := s.st

			if _, err := s.base.WithOrder(s.Stats().FinalOrder); err != nil {
				t.Fatalf("order is not a permutation: %v", err)
			}
			if after.Reverts > after.Reorders+after.Explorations {
				t.Fatalf("%d reverts of %d reorders and %d explorations", after.Reverts, after.Reorders, after.Explorations)
			}
			replaced := after.Reorders > before.Reorders || after.Explorations > before.Explorations
			// The first step that cost anything is the verdict; a step of
			// skipped vectors leaves it pending and holds the point.
			if pending && br.MaxCycles > 0 && s.pendingValidation && !replaced {
				t.Fatal("a costed step left the validation pending")
			}
			if pending && br.MaxCycles == 0 && (!s.pendingValidation || replaced || after.Reverts > before.Reverts || after.Optimizations > before.Optimizations) {
				t.Fatalf("a zero-cost step decided: %+v -> %+v", before, after)
			}
			// A sample belongs to the order it was taken under: the step that
			// reverts neither estimates nor probes.
			if after.Reverts > before.Reverts && (replaced || after.Optimizations > before.Optimizations) {
				t.Fatalf("a reverting step decided again: %+v -> %+v", before, after)
			}
			// A rejected order is not applied while it is in the set.
			if replaced && slices.ContainsFunc(s.rejected, func(r []int) bool { return slices.Equal(r, s.curPerm) }) {
				t.Fatalf("applied %v, which is rejected (%v)", s.curPerm, s.rejected)
			}
			// The set and the back-off stand and fall together: every revert of
			// the streak is in the set, and no point is sat out without one.
			if len(s.rejected) < s.revert.k || s.revert.k == 0 && s.revert.left != 0 {
				t.Fatalf("%d rejected orders, back-off %d, hold-off %d", len(s.rejected), s.revert.k, s.revert.left)
			}
			if s.accounted != clock {
				t.Fatalf("accounted clock %d, steps and extras sum to %d", s.accounted, clock)
			}
			// The ledger's three parts of the clock are disjoint, and regret
			// is a share of the reverted steps.
			if l := after.Ledger; l.SampleCycles+l.RecompileCycles+l.RevertedCycles > clock || l.RegretCycles > l.RevertedCycles {
				t.Fatalf("ledger %+v exceeds the accounted clock %d", l, clock)
			}
			if after.ConvergedAtCycles < converged || after.ConvergedAtCycles > clock {
				t.Fatalf("converged at %d: was %d, clock %d", after.ConvergedAtCycles, converged, clock)
			}
			converged = after.ConvergedAtCycles
			if after.Optimizations > before.Optimizations && (impl == exec.ImplBranchFree || !optPoint) {
				t.Fatalf("estimated on a %v step (optimization point: %v)", impl, optPoint)
			}
			// A point sat out, by either back-off, samples nothing and
			// charges nothing; only the reverting step itself pays.
			if after.HeldOff > before.HeldOff && after.Reverts == before.Reverts && (extra != 0 || after.Optimizations != before.Optimizations) {
				t.Fatalf("a sat-out point charged %d cycles: %+v -> %+v", extra, before, after)
			}
			// Between two plan changes the confirmation back-off doubles the
			// points it sits out: on a stationary stream the n-th point after
			// a change has estimated at most log2(n) + 1 times since.
			if stationary {
				if after.Reorders+after.Reverts+after.Explorations+after.ImplSwitches > before.Reorders+before.Reverts+before.Explorations+before.ImplSwitches {
					since, estimates = 0, 0
				} else if since, estimates = since+1, estimates+after.Optimizations-before.Optimizations; estimates > bits.Len(uint(since)) {
					t.Fatalf("%d estimates in the %d points since the last plan change", estimates, since)
				}
			}
			// The coordinator pays for everything the step charged; the other
			// cores only for recompiles.
			for i, e := range engines {
				charged := e.CPU().Cycles() - starts[i]
				if i == 0 && charged != extra || charged > extra {
					t.Fatalf("core %d charged %d cycles, extra %d", i, charged, extra)
				}
			}
		}
		// Nothing the estimator proposes on that stationary run survives, so
		// the reverts come in a row and the back-off spaces them out.
		if stationary && points > 0 {
			if bound := bits.Len(uint(points-1)) + 1; s.st.Reverts > bound || s.st.Reverts != s.st.Reorders+s.st.Explorations-btoi(s.pendingValidation) {
				t.Fatalf("%d reverts of %d reorders and %d probes at %d stationary points, bound %d", s.st.Reverts, s.st.Reorders, s.st.Explorations, points, bound)
			}
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
