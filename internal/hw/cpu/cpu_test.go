package cpu

import (
	"slices"
	"testing"

	"progopt/internal/hw/branch"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/pmu"
)

func TestProfileValidate(t *testing.T) {
	if _, err := New(ScaledXeon()); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	bad := ScaledXeon()
	bad.ClockGHz = 0
	if _, err := New(bad); err == nil {
		t.Error("zero clock accepted")
	}
	bad = ScaledXeon()
	bad.IssueWidth = 0
	if _, err := New(bad); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = ScaledXeon()
	bad.MemParallelism = 0
	if _, err := New(bad); err == nil {
		t.Error("zero memory parallelism accepted")
	}
	bad = ScaledXeon()
	bad.Arch = "vax"
	if _, err := New(bad); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestForArchProfiles(t *testing.T) {
	for _, a := range branch.Arches() {
		if _, err := New(ForArch(a)); err != nil {
			t.Errorf("ForArch(%v): %v", a, err)
		}
	}
}

func TestAlloc(t *testing.T) {
	c := MustNew(ScaledXeon())
	a, err := c.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Error("allocation at null page")
	}
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not line aligned: %#x %#x", a, b)
	}
	// Cache coloring: consecutive allocations land in different L1 sets.
	if (a>>6)%4 == (b>>6)%4 {
		t.Errorf("consecutive allocations share an L1 set: %#x %#x", a, b)
	}
	if b <= a || b-a < 4096+100 {
		t.Errorf("allocations overlap or lack guard: %#x %#x", a, b)
	}
	if _, err := c.Alloc(0); err == nil {
		t.Error("zero-size allocation accepted")
	}
}

func TestLoadCountsAndStalls(t *testing.T) {
	c := MustNew(ScaledXeon())
	base, _ := c.Alloc(1 << 20)
	r := c.Load(base)
	if r.Level != cache.HitMem {
		t.Fatalf("cold load level %v", r.Level)
	}
	cyc1 := c.Cycles()
	if cyc1 == 0 {
		t.Error("memory load accounted zero cycles")
	}
	r = c.Load(base)
	if r.Level != cache.HitL1 {
		t.Fatalf("warm load level %v", r.Level)
	}
	cyc2 := c.Cycles()
	// An L1 hit costs at most one issue slot, far less than the miss.
	if cyc2-cyc1 >= cyc1 {
		t.Errorf("L1 hit cost (%d) not cheaper than memory miss (%d)", cyc2-cyc1, cyc1)
	}
	s := c.Sample()
	if s.Get(pmu.L1Access) != 2 || s.Get(pmu.L1Miss) != 1 {
		t.Errorf("L1 access/miss = %d/%d, want 2/1", s.Get(pmu.L1Access), s.Get(pmu.L1Miss))
	}
	if s.Get(pmu.Instructions) != 2 {
		t.Errorf("instructions = %d, want 2", s.Get(pmu.Instructions))
	}
}

func TestCondBranchCounting(t *testing.T) {
	c := MustNew(ScaledXeon())
	// Train site 0 to taken, then surprise it.
	for i := 0; i < 10; i++ {
		c.CondBranch(0, true)
	}
	before := c.Sample()
	out := c.CondBranch(0, false)
	if !out.Mispredicted() {
		t.Fatal("trained-taken site predicted a sudden not-taken")
	}
	d := c.Sample().Sub(before)
	if d.Get(pmu.BrNotTaken) != 1 || d.Get(pmu.BrMPNotTaken) != 1 {
		t.Errorf("not-taken/mp-not-taken delta = %d/%d, want 1/1",
			d.Get(pmu.BrNotTaken), d.Get(pmu.BrMPNotTaken))
	}
	if d.Get(pmu.BrMP) != 1 {
		t.Errorf("br_mp delta = %d, want 1", d.Get(pmu.BrMP))
	}
	s := c.Sample()
	if s.Get(pmu.BrCond) != s.Get(pmu.BrTaken)+s.Get(pmu.BrNotTaken) {
		t.Error("br_cond != br_taken + br_not_taken")
	}
}

func TestMispredictionCostsCycles(t *testing.T) {
	mk := func() *CPU { return MustNew(ScaledXeon()) }
	// All-taken stream: nearly no mispredictions.
	a := mk()
	for i := 0; i < 1000; i++ {
		a.CondBranch(0, true)
	}
	// Alternating stream: many mispredictions.
	b := mk()
	for i := 0; i < 1000; i++ {
		b.CondBranch(0, i%2 == 0)
	}
	if b.Cycles() <= a.Cycles() {
		t.Errorf("alternating branches (%d cycles) not slower than constant (%d cycles)",
			b.Cycles(), a.Cycles())
	}
}

func TestResetPredictorClearsTraining(t *testing.T) {
	c := MustNew(ScaledXeon())
	for i := 0; i < 10; i++ {
		c.CondBranch(0, false)
	}
	c.ResetPredictor()
	out := c.CondBranch(0, true)
	if out.Mispredicted() {
		t.Error("fresh predictor after reset should predict taken (init state)")
	}
}

// coldScript is a fixed mix of loads, branches and ALU work that ends on a
// fraction of a cycle (3 mod 4 issue slots, odd stall quarters), and returns
// the clock readings taken along the way.
func coldScript(c *CPU, base uint64) []uint64 {
	var clocks []uint64
	rows := []int32{1, 9, 10, 700, 4000, 4001}
	addrs := []uint64{base + 1<<19, base + 64, base + 1<<18, base + 1<<19}
	for round := 0; round < 3; round++ {
		c.Load(base + uint64(round)*4096)
		c.LoadSeq(base, 8, 1500)
		c.LoadSel(base+1<<16, 4, rows)
		c.LoadAddrs(addrs)
		for i := 0; i < 37; i++ {
			c.CondBranch(1, i%3 == 0)
		}
		c.CondBranchN(2, round%2 == 0, 11)
		c.Exec(3)
		clocks = append(clocks, c.Cycles())
	}
	return clocks
}

// TestColdIsConstructedState pins Cold's contract: what runs after it reads
// the PMU and cycle deltas it reads on a new core, the clock never moves back,
// and a new core is already cold.
func TestColdIsConstructedState(t *testing.T) {
	fresh := MustNew(ScaledXeon())
	base, _ := fresh.Alloc(1 << 20)
	want := coldScript(fresh, base)
	wantPMU := fresh.Sample()

	untouched := MustNew(ScaledXeon())
	untouched.Cold()
	if got := coldScript(untouched, base); !slices.Equal(got, want) || untouched.Sample() != wantPMU {
		t.Errorf("Cold changed a new core: clocks %v, want %v", got, want)
	}

	used := MustNew(ScaledXeon())
	// Leave the core warm, trained and between two cycles.
	coldScript(used, base)
	used.Exec(1)
	used.Load(base + 1<<17)
	for i := 0; i < 3; i++ {
		before := used.Cycles()
		used.Cold()
		t0, s0 := used.Cycles(), used.Sample()
		if t0 < before {
			t.Fatalf("reuse %d: clock moved back across Cold: %d -> %d", i, before, t0)
		}
		got := coldScript(used, base)
		for k := range got {
			got[k] -= t0
		}
		if !slices.Equal(got, want) {
			t.Errorf("reuse %d: cycle deltas %v, want %v", i, got, want)
		}
		d := used.Sample().Sub(s0)
		if d != wantPMU {
			t.Errorf("reuse %d: PMU delta\n got %v\nwant %v", i, d, wantPMU)
		}
		used.Exec(i + 1) // a different residue to start the next reuse from
	}
}

func TestL3AccessCounterComposition(t *testing.T) {
	c := MustNew(ScaledXeon())
	base, _ := c.Alloc(1 << 20)
	for i := 0; i < 1000; i++ {
		c.Load(base + uint64(i*64))
	}
	s := c.Sample()
	if s.Get(pmu.L3Access) != s.Get(pmu.L3DemandAccess)+s.Get(pmu.L3PrefetchAccess) {
		t.Error("l3_access != demand + prefetch")
	}
	if s.Get(pmu.L3PrefetchAccess) == 0 {
		t.Error("sequential scan produced no prefetch accesses")
	}
}

func TestMillis(t *testing.T) {
	c := MustNew(ScaledXeon())
	c.Exec(2_600_000 * 4) // issue width 4 -> 2.6M cycles = 1 ms at 2.6 GHz
	if got := c.MillisOf(c.Cycles()); got < 0.99 || got > 1.01 {
		t.Errorf("MillisOf(Cycles()) = %v, want ~1.0", got)
	}
	if got := c.MillisOf(2_600_000); got < 0.99 || got > 1.01 {
		t.Errorf("MillisOf = %v, want ~1.0", got)
	}
}
