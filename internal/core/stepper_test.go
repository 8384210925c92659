package core

import (
	"math"
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
	vectors  int       // 0 means 1
	optPoint bool
	partial  bool // not eligible for validation
}

func feed(t testing.TB, s *BlockStepper, engines []*exec.Engine, st synthStep) uint64 {
	t.Helper()
	br := exec.BlockResult{Vectors: max(st.vectors, 1), MaxCycles: st.cost, Counters: countersFor(t, s, st.sels)}
	extra, err := s.AfterBlock(br, stepTuples, st.optPoint, !st.partial, engines[0].CPU(), engines)
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

// TestStepperRevertThenTabu: a reorder that validation rolls back is not
// proposed again, however often the estimator asks for it, until a later
// revert overwrites the remembered order.
func TestStepperRevertThenTabu(t *testing.T) {
	s, eng := stepperFixture(t, 3, 2, false, Options{ReopInterval: 1})
	feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000, optPoint: true})
	wantOrder(t, s, 2, 1, 0)
	// The new order costs more: back to the start, and [2 1 0] is tabu.
	feed(t, s, eng, synthStep{sels: selsDescending, cost: 2000})
	wantOrder(t, s, 0, 1, 2)
	for i := 0; i < 4; i++ {
		feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000, optPoint: true})
		wantOrder(t, s, 0, 1, 2)
	}
	if st := s.Stats(); st.Reorders != 1 || st.Reverts != 1 || st.Optimizations != 5 {
		t.Fatalf("stats %+v, want 1 reorder, 1 revert, 5 optimizations", st)
	}
	// A different proposal is taken, and its revert overwrites the tabu.
	feed(t, s, eng, synthStep{sels: selsMiddleLow, cost: 1000, optPoint: true})
	wantOrder(t, s, 1, 0, 2)
	feed(t, s, eng, synthStep{sels: selsMiddleLow, cost: 2000})
	wantOrder(t, s, 0, 1, 2)
	feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000, optPoint: true})
	wantOrder(t, s, 2, 1, 0)
	if st := s.Stats(); st.Reorders != 3 || st.Reverts != 2 {
		t.Fatalf("stats %+v, want 3 reorders, 2 reverts", st)
	}
}

// TestStepperExploreSkipsRejectedRotation: once validation has rejected the
// probe rotation, a due probe falls through to plain estimation.
func TestStepperExploreSkipsRejectedRotation(t *testing.T) {
	s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1, ExploreEvery: 1})
	feed(t, s, eng, synthStep{sels: selsAscending, cost: 1000, optPoint: true}) // confirms the order
	feed(t, s, eng, synthStep{sels: selsAscending, cost: 1000, optPoint: true}) // probe
	wantOrder(t, s, 1, 2, 0)
	if s.st.Explorations != 1 || s.st.Optimizations != 1 {
		t.Fatalf("stats %+v, want the second point to probe instead of estimating", s.st)
	}
	// The probe is slower: reverted and remembered. Every later point is due
	// a probe again, finds the rotation rejected, and estimates.
	feed(t, s, eng, synthStep{sels: selsAscending, cost: 2000})
	wantOrder(t, s, 0, 1, 2)
	for i := 0; i < 3; i++ {
		feed(t, s, eng, synthStep{sels: selsAscending, cost: 1000, optPoint: true})
		wantOrder(t, s, 0, 1, 2)
	}
	if st := s.Stats(); st.Explorations != 1 || st.Reverts != 1 || st.Optimizations != 4 {
		t.Fatalf("stats %+v, want 1 exploration, 1 revert, 4 optimizations", st)
	}
}

// TestStepperSingleOperatorNeverProbes: one operator has no other order, so
// a due probe must not charge a recompile, count an exploration, or set up a
// revert to the same order.
func TestStepperSingleOperatorNeverProbes(t *testing.T) {
	s, eng := stepperFixture(t, 1, 1, false, Options{ReopInterval: 1, ExploreEvery: 1})
	for i := 0; i < 6; i++ {
		feed(t, s, eng, synthStep{sels: []float64{0.5}, cost: uint64(1000 + 500*i), optPoint: true})
	}
	if st := s.Stats(); st.Explorations != 0 || st.Reverts != 0 || st.Optimizations != 6 || st.ConvergedAtCycles != 0 {
		t.Fatalf("stats %+v, want six plain estimations and no plan change", st)
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

// TestStepperRevertAndEstimateInOneStep: at ReopInterval 1 the step that
// validates is itself an optimization point. The revert and the estimate
// share it — the estimate reads the sample, taken under the rejected order,
// in the restored order's positions, here as already ascending, and changes
// nothing — and ConvergedAtCycles is the clock at the end of that step.
func TestStepperRevertAndEstimateInOneStep(t *testing.T) {
	s, eng := stepperFixture(t, 3, 1, false, Options{ReopInterval: 1})
	clock := uint64(1000) + feed(t, s, eng, synthStep{sels: selsDescending, cost: 1000, optPoint: true})
	if s.st.ConvergedAtCycles != clock {
		t.Fatalf("converged at %d after the reorder, clock %d", s.st.ConvergedAtCycles, clock)
	}
	c0 := eng[0].CPU().Cycles()
	extra := feed(t, s, eng, synthStep{sels: selsDescending, cost: 2000, optPoint: true})
	clock += 2000 + extra
	wantOrder(t, s, 0, 1, 2)
	if st := s.Stats(); st.Reverts != 1 || st.Optimizations != 2 || st.Reorders != 1 {
		t.Fatalf("stats %+v, want the revert and a second estimate", st)
	}
	if charged := eng[0].CPU().Cycles() - c0; charged != extra || extra <= 500 {
		t.Fatalf("extra %d, core charged %d: want the recompile (500) plus the estimate", extra, charged)
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

// FuzzStepperInvariants feeds the stepper arbitrary step streams — counters
// that need not be consistent with any selectivities, costs, schedules — and
// checks what must hold whatever the evidence says.
func FuzzStepperInvariants(f *testing.F) {
	f.Fuzz(func(t *testing.T, opsRaw, flags, explore uint8, stream []byte) {
		nOps := int(opsRaw)%5 + 1
		micro, serial, noValidation := flags&1 != 0, flags&2 != 0, flags&8 != 0
		cores := 1
		if !serial {
			cores += int(flags >> 4 & 3)
		}
		s, engines := stepperFixture(t, nOps, cores, micro,
			Options{ReopInterval: 1, ExploreEvery: int(explore % 4), DisableValidation: noValidation})
		if flags&4 != 0 {
			s.SetImpl(exec.ImplBranchFree)
		}
		var clock, converged uint64
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
			br := exec.BlockResult{Vectors: 1, MaxCycles: uint64(b[4]) * 100, Counters: d}
			if !serial {
				br.Vectors += int(b[5] % 8)
			}
			optPoint, validate := b[6]&1 != 0, b[6]&2 != 0 || !serial

			before, pending, impl := s.st, s.pendingValidation, s.Impl()
			starts := make([]uint64, cores)
			for i, e := range engines {
				starts[i] = e.CPU().Cycles()
			}
			extra, err := s.AfterBlock(br, stepTuples, optPoint, validate, engines[0].CPU(), engines)
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
			if s.accounted != clock {
				t.Fatalf("accounted clock %d, steps and extras sum to %d", s.accounted, clock)
			}
			if after.ConvergedAtCycles < converged || after.ConvergedAtCycles > clock {
				t.Fatalf("converged at %d: was %d, clock %d", after.ConvergedAtCycles, converged, clock)
			}
			converged = after.ConvergedAtCycles
			if after.Optimizations > before.Optimizations && (impl == exec.ImplBranchFree || !optPoint) {
				t.Fatalf("estimated on a %v step (optimization point: %v)", impl, optPoint)
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
	})
}
