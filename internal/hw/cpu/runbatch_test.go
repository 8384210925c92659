package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"progopt/internal/hw/branch"
)

// Property test for the satellite acceptance criterion: the run-batched load
// and branch paths (LoadSeq, LoadSel, LoadAddrs, CondBranchN) must leave
// every PMU counter — cache events at every level, branch events, retired
// instructions — and the cycle clock bit-identical to the equivalent
// per-element Load/CondBranch sequences, across random strides, selections,
// address streams, cache configurations, and both predictor families.

func randProfile(rng *rand.Rand) Profile {
	p := ScaledXeon()
	if rng.Intn(2) == 0 {
		p.Arch = branch.ArchNehalem // gshare: exercises the loop ObserveN path
	}
	hier := &p.Hierarchy
	if rng.Intn(2) == 0 {
		hier.L1.Ways = 4
		hier.L2.Ways = 4
	}
	if rng.Intn(2) == 0 {
		hier.L1.SizeBytes = 1 << 10
	}
	return p
}

func TestRunBatchedPathsMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		prof := randProfile(rng)
		ref := MustNew(prof)
		bat := MustNew(prof)
		for step := 0; step < 40; step++ {
			switch rng.Intn(5) {
			case 0: // strided run
				start := uint64(rng.Intn(1 << 22))
				stride := []int{4, 8, 24, 64, 160}[rng.Intn(5)]
				n := rng.Intn(400) + 1
				for i := 0; i < n; i++ {
					ref.Load(start + uint64(i)*uint64(stride))
				}
				bat.LoadSeq(start, stride, n)
			case 1: // selection gather
				base := uint64(rng.Intn(1 << 22))
				stride := []int{4, 8}[rng.Intn(2)]
				nrows := rng.Intn(300) + 1
				rows := make([]int32, 0, nrows)
				row := int32(rng.Intn(4))
				for len(rows) < nrows {
					rows = append(rows, row)
					row += int32(rng.Intn(12))
				}
				for _, r := range rows {
					ref.Load(base + uint64(r)*uint64(stride))
				}
				bat.LoadSel(base, stride, rows)
			case 2: // data-dependent address stream
				n := rng.Intn(300) + 1
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = uint64(rng.Intn(1<<18)) * 16
					if i > 0 && rng.Intn(4) == 0 {
						addrs[i] = addrs[i-1]
					}
				}
				for _, a := range addrs {
					ref.Load(a)
				}
				bat.LoadAddrs(addrs)
			case 3: // same-direction branch batch
				site := rng.Intn(6)
				taken := rng.Intn(2) == 0
				n := rng.Intn(200) + 1
				for i := 0; i < n; i++ {
					ref.CondBranch(site, taken)
				}
				bat.CondBranchN(site, taken, n)
			default: // interleaved singles keep both sides' state honest
				site := rng.Intn(6)
				taken := rng.Intn(2) == 0
				addr := uint64(rng.Intn(1 << 22))
				ref.CondBranch(site, taken)
				ref.Load(addr)
				bat.CondBranch(site, taken)
				bat.Load(addr)
			}
			a, b := ref.Sample(), bat.Sample()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d step %d (arch %s): samples diverge:\n per-elem %v\n batched  %v",
					trial, step, prof.Arch, a, b)
			}
			if ref.Cycles() != bat.Cycles() {
				t.Fatalf("trial %d step %d: cycles %d vs %d", trial, step, ref.Cycles(), bat.Cycles())
			}
		}
	}
}

// TestAddrBufReuse pins the scratch contract: capacity grows to the largest
// request and the same backing array is handed out again.
func TestAddrBufReuse(t *testing.T) {
	c := MustNew(ScaledXeon())
	b1 := c.AddrBuf(100)
	if len(b1) != 0 || cap(b1) < 100 {
		t.Fatalf("AddrBuf(100) = len %d cap %d", len(b1), cap(b1))
	}
	b1 = append(b1, 1, 2, 3)
	b2 := c.AddrBuf(50)
	if &b1[0] != &b2[:1][0] {
		t.Fatal("AddrBuf did not reuse the backing array")
	}
}

// opaquePredictor hides its model's concrete type, so a core that carries it
// takes the paths written for a predictor the CPU knows nothing about.
type opaquePredictor struct{ branch.Predictor }

// bitsPredictors lists the predictors CondBranchBits must be exact for: every
// modelled microarchitecture, every saturating geometry NewSaturating
// accepts, and one predictor of a type the CPU does not recognize. Each entry
// builds a new core.
func bitsPredictors() (names []string, mk []func() *CPU) {
	add := func(name string, f func() *CPU) {
		names, mk = append(names, name), append(mk, f)
	}
	for _, a := range branch.Arches() {
		prof := ScaledXeon()
		prof.Arch = a
		add(string(a), func() *CPU { return MustNew(prof) })
	}
	with := func(p func() branch.Predictor) func() *CPU {
		return func() *CPU {
			c := MustNew(ScaledXeon())
			c.setPredictor(p())
			return c
		}
	}
	for states := 2; states <= 16; states++ {
		biases := []branch.Bias{branch.BiasNone}
		if states%2 == 1 {
			biases = []branch.Bias{branch.BiasTaken, branch.BiasNotTaken}
		}
		for _, bias := range biases {
			add(branch.MustSaturating(states, bias).Name(),
				with(func() branch.Predictor { return branch.MustSaturating(states, bias) }))
		}
	}
	add("opaque", with(func() branch.Predictor { return opaquePredictor{branch.MustSaturating(6, branch.BiasNone)} }))
	return names, mk
}

// retireBits retires the first n directions of dirs at site, one CondBranch
// at a time on ref and as one CondBranchBits on bat — which is handed a copy
// whose bits above n are set or cleared at random — and fails unless both
// cores then agree on every PMU event and on the clock.
func retireBits(t *testing.T, rng *rand.Rand, ref, bat *CPU, name string, site int, dirs []uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ref.CondBranch(site, dirs[i>>6]>>(i&63)&1 == 1)
	}
	dirty := append([]uint64(nil), dirs...)
	for i := n; i < len(dirty)*64; i++ {
		dirty[i>>6] = dirty[i>>6]&^(1<<(i&63)) | uint64(rng.Intn(2))<<(i&63)
	}
	bat.CondBranchBits(site, dirty, n)
	sameCore(t, ref, bat, fmt.Sprintf("%s: site %d, %d branches of %#x", name, site, n, dirs))
}

func sameCore(t *testing.T, ref, bat *CPU, when string) {
	t.Helper()
	if a, b := ref.Sample(), bat.Sample(); a != b {
		t.Fatalf("%s: samples diverge:\n per-branch %v\n bits       %v", when, a, b)
	}
	if ref.Cycles() != bat.Cycles() {
		t.Fatalf("%s: cycles %d vs %d", when, ref.Cycles(), bat.Cycles())
	}
}

// probeSites walks each site's predictor state off both cores: seventeen
// not-taken branches cross every state of a sixteen-state counter, so two
// counters (or two gshare tables and histories) that differ somewhere the
// walk reaches answer differently.
func probeSites(t *testing.T, ref, bat *CPU, sites []int) {
	t.Helper()
	for _, site := range sites {
		for i := 0; i < 17; i++ {
			if a, b := ref.CondBranch(site, false), bat.CondBranch(site, false); a != b {
				t.Fatalf("site %d: probing branch %d answered %+v after per-branch retirement, %+v after bits", site, i, a, b)
			}
		}
	}
}

// TestCondBranchBitsMatchesPerBranch pins CondBranchBits to its definition,
// n CondBranch calls in bit order: PMU sample, clock and predictor state
// agree for every predictor, at the lengths around a byte and a word
// boundary, for constant, alternating and random direction words, at a site
// beyond the predictor's initial table (which must grow), and whatever the
// bits above n hold.
func TestCondBranchBitsMatchesPerBranch(t *testing.T) {
	names, mk := bitsPredictors()
	sites := []int{0, 3, 200}
	for pi, name := range names {
		rng := rand.New(rand.NewSource(int64(24 + pi)))
		ref, bat := mk[pi](), mk[pi]()
		bat.CondBranchBits(1, nil, 0) // nothing to retire, nothing to read
		sameCore(t, ref, bat, name+": empty stream")
		for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
			for pattern := 0; pattern < 4; pattern++ {
				dirs := make([]uint64, (n+63)/64+1)
				for i := range dirs {
					switch pattern {
					case 0:
						dirs[i] = ^uint64(0)
					case 2:
						dirs[i] = 0xAAAAAAAAAAAAAAAA
					case 3:
						dirs[i] = rng.Uint64()
					}
				}
				site := sites[rng.Intn(len(sites))]
				retireBits(t, rng, ref, bat, name, site, dirs, n)
			}
		}
		probeSites(t, ref, bat, sites)
	}
}

// FuzzCondBranchBitsMatchesPerBranch interleaves bit-stream retirement with
// the other things a query does to a core's predictor — constant-outcome
// batches and cold starts — on a fuzzer-chosen predictor: script bytes pick
// the operation, the site (one of them past the initial table), the length
// and the directions. After every operation the bits core must equal the
// per-branch core in PMU sample and clock, and at the end in predictor state.
func FuzzCondBranchBitsMatchesPerBranch(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 9, 0, 0xff, 0x01, 2, 1, 40, 0, 3, 0, 1, 200, 0, 0x55})
	f.Add(uint8(2), []byte{0, 3, 65, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 3, 1, 1, 0, 3, 232, 3})
	f.Fuzz(func(t *testing.T, predictor uint8, script []byte) {
		_, mk := bitsPredictors()
		ref, bat := mk[int(predictor)%len(mk)](), mk[int(predictor)%len(mk)]()
		rng := rand.New(rand.NewSource(int64(len(script))))
		sites := []int{0, 1, 5, 300}
		for ops := 0; len(script) >= 4 && ops < 256; ops++ {
			op, site, n := script[0]%4, sites[script[1]%4], int(script[2])|int(script[3]&3)<<8
			script = script[4:]
			switch op {
			case 0, 1: // the next n bits of the script, zeros once it runs out
				dirs := make([]uint64, (n+63)/64+1)
				for i := 0; i < (n+7)/8 && len(script) > 0; i++ {
					dirs[i>>3] |= uint64(script[0]) << ((i & 7) * 8)
					script = script[1:]
				}
				retireBits(t, rng, ref, bat, "fuzzed", site, dirs, n)
			case 2:
				ref.CondBranchN(site, n&1 == 1, n>>1)
				bat.CondBranchN(site, n&1 == 1, n>>1)
			default:
				ref.Cold()
				bat.Cold()
			}
			sameCore(t, ref, bat, fmt.Sprintf("op %d", op))
		}
		probeSites(t, ref, bat, sites)
	})
}

// TestCoresShareStepTable pins the sharing rule of the eight-branch
// transition table: it belongs to a counter geometry, not to a core, so
// building a core never builds a table that exists — four cores of one
// profile read one backing array, and a core with another geometry reads
// another.
func TestCoresShareStepTable(t *testing.T) {
	table := func(c *CPU) uintptr {
		return reflect.ValueOf(c.sat).Elem().FieldByName("steps").Pointer()
	}
	first := table(MustNew(ScaledXeon()))
	if first == 0 {
		t.Fatal("a saturating core has no step table")
	}
	for i := 1; i < 4; i++ {
		if got := table(MustNew(ScaledXeon())); got != first {
			t.Fatalf("core %d reads a step table at %#x, core 0 at %#x", i, got, first)
		}
	}
	amd := ScaledXeon()
	amd.Arch = branch.ArchAMD
	if table(MustNew(amd)) == first {
		t.Fatal("four- and six-state counters share a step table")
	}
}
