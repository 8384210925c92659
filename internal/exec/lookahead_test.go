package exec

import (
	"fmt"
	"slices"
	"testing"

	"progopt/internal/hw/cpu"
)

func TestCertify(t *testing.T) {
	for _, c := range []struct {
		name     string
		clocks   []uint64
		bounds   []uint64 // read only where inFlight
		inFlight []bool
		pos      int
		blocker  int
		at       uint64 // the idle argmin's clock
	}{
		{"all idle: smallest clock", []uint64{30, 10, 20}, []uint64{0, 0, 0}, []bool{false, false, false}, 1, -1, 10},
		{"all idle: tie goes to the lowest position", []uint64{10, 10, 10}, []uint64{0, 0, 0}, []bool{false, false, false}, 0, -1, 10},
		{"below the running core's bound", []uint64{0, 40, 50}, []uint64{41, 0, 0}, []bool{true, false, false}, 1, -1, 40},
		{"equal to the bound is not certified", []uint64{0, 40, 50}, []uint64{40, 0, 0}, []bool{true, false, false}, -1, 0, 40},
		{"a running core far behind blocks everyone", []uint64{0, 900, 950}, []uint64{100, 0, 0}, []bool{true, false, false}, -1, 0, 900},
		{"second bound in the way", []uint64{0, 0, 70}, []uint64{100, 60, 0}, []bool{true, true, false}, -1, 1, 70},
		{"only the idle argmin is a candidate", []uint64{0, 90, 60}, []uint64{50, 0, 0}, []bool{true, false, false}, -1, 0, 60},
		{"zero-duration morsel in flight: bound is its entry", []uint64{7, 7, 9}, []uint64{7, 0, 0}, []bool{true, false, false}, -1, 0, 7},
		{"every core in flight", []uint64{1, 2}, []uint64{5, 6}, []bool{true, true}, -1, -1, 0},
	} {
		pos, blocker, at := certify(c.clocks, c.bounds, c.inFlight)
		if pos != c.pos || blocker != c.blocker || at != c.at {
			t.Errorf("%s: got (pos %d, blocker %d, at %d), want (%d, %d, %d)", c.name, pos, blocker, at, c.pos, c.blocker, c.at)
		}
	}
}

// schedCase is one synthetic run: entry clocks, a duration for every (core,
// morsel) pair, guaranteed minimum durations, and optionally failing morsels.
// With steps, it is an adaptive run: each step's first steps morsels are its
// window, a decision costing coord follows the window's last completion, and
// the step ends at the first pick at or after the decision's time. A morsel
// picked in step k runs order k and takes k cycles longer than its duration,
// so a morsel run under the wrong order shows in the clocks. No engine, no
// query — only what the scheduling rule sees.
type schedCase struct {
	entry  []uint64
	dur    [][]uint64 // [pos][morsel]
	minDur []uint64
	fails  []bool
	window int
	steps  int // window morsels per step; 0 is one block without a window
	coord  uint64
}

// cost is morsel v's duration on pos under order k.
func (c *schedCase) cost(pos, v, k int) uint64 { return c.dur[pos][v] + uint64(k) }

// serialSchedule is the reference: morsels in order, each to the core with
// the smallest clock (ties to the lowest position), one at a time, stopping
// at the first failed morsel. With steps, the decision of step k lands on the
// core whose window morsel completed last (ties to the lowest position) at
// that completion plus coord, and a pick at or after it runs order k+1; order
// is each morsel's.
func (c *schedCase) serialSchedule() (pos, order []int, clocks []uint64) {
	clocks = slices.Clone(c.entry)
	k, winHi, winPos := -1, 0, -1
	var winEnd, decideAt uint64
	if c.steps == 0 {
		k = 0
	}
	for v := range c.minDur {
		i := 0
		for j := range clocks {
			if clocks[j] < clocks[i] {
				i = j
			}
		}
		if c.steps > 0 && v >= winHi && clocks[i] >= decideAt {
			// The next step's first pick: its window opens.
			k, winHi, winPos, decideAt = k+1, v+c.steps, -1, ^uint64(0)
		}
		pos, order = append(pos, i), append(order, k)
		clocks[i] += c.cost(i, v, k)
		if c.fails[v] {
			break
		}
		if v < winHi {
			if winPos < 0 || clocks[i] > winEnd || clocks[i] == winEnd && i < winPos {
				winEnd, winPos = clocks[i], i
			}
			if v == min(winHi, len(c.minDur))-1 {
				// The decision, on the core the window completed on.
				decideAt = winEnd + c.coord
				clocks[winPos] = decideAt
			}
		}
	}
	return pos, order, clocks
}

// decodeSched turns fuzz bytes into a case plus the leftover bytes that drive
// the interleaving. Durations are drawn from a small alphabet on purpose:
// zero (zone-map-skipped vectors), equal values (exact ties), and one large
// value (a core that falls far behind).
func decodeSched(data []byte) (*schedCase, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cores := 1 + int(next()%6)
	morsels := 1 + int(next()%48)
	c := &schedCase{window: 1 + int(next()%(4*uint8(cores)))}
	if b := next(); b%2 == 1 {
		c.steps = 1 + int(b/2)%(3*cores)
		c.coord = []uint64{0, 1, 100, 250, 3000}[next()%5]
	}
	for i := 0; i < cores; i++ {
		c.entry = append(c.entry, []uint64{0, 0, 5, 100, 100, 4000}[next()%6])
		c.dur = append(c.dur, make([]uint64, morsels))
	}
	alphabet := []uint64{0, 1, 100, 100, 101, 250, 3000}
	failAt := int(next()) // mostly beyond the block: no failure
	for v := 0; v < morsels; v++ {
		skip := next()%5 == 0
		lowest := ^uint64(0)
		for i := 0; i < cores; i++ {
			if !skip {
				c.dur[i][v] = alphabet[next()%uint8(len(alphabet))]
			}
			lowest = min(lowest, c.dur[i][v])
		}
		// The guaranteed minimum never exceeds any core's real duration.
		c.minDur = append(c.minDur, lowest/uint64(1+next()%3))
		c.fails = append(c.fails, v >= failAt && next()%2 == 0)
	}
	return c, data
}

// runLookahead replays a case through the lookahead scheduler with the host
// interleaving chosen by script: each byte picks a worker; an idle worker
// tries to take a morsel, a running one publishes part of its progress or
// completes and reduces whatever is next in order, and one that completed a
// window takes the decision. With steps, a step is one block, and the next
// starts from its clocks where it ended. When the script runs out the
// remaining work of a step is drained round-robin, which also proves that no
// reachable state is a deadlock.
func runLookahead(c *schedCase, workers int, script []byte) (pos, order, merged []int, clocks []uint64, failed int, err error) {
	type running struct {
		active, deciding bool
		pos, v           int
		entry, end       uint64
		published        uint64
	}
	n := len(c.minDur)
	clocks = slices.Clone(c.entry)
	var s lookahead
	ws := make([]running, workers)
	pos = make([]int, 0, n)
	failed = -1
	k := 0
	step := func(w int, publish bool, frac uint64) (progressed bool) {
		r := &ws[w]
		if r.deciding {
			s.decide(s.winEnd + c.coord)
			r.deciding = false
			return true
		}
		if !r.active {
			if s.finished() {
				return false
			}
			v := s.next
			p, _, at := s.assign(c.minDur[v])
			if p < 0 {
				return false
			}
			if len(pos) != v {
				err = fmt.Errorf("morsel %d assigned after %d others", v, len(pos))
			}
			pos, order = append(pos, p), append(order, k)
			*r = running{active: true, pos: p, v: v, entry: at, end: at + c.cost(p, v, k), published: at}
			return true
		}
		if publish && r.end > r.published {
			// Any clock between the last one published and the end is a
			// legal publication: the simulated clock is monotone.
			r.published += 1 + frac%(r.end-r.published)
			s.cells[r.pos].clock.Store(r.published)
			return true
		}
		r.deciding = s.complete(r.pos, r.v, r.end, c.fails[r.v])
		r.active = false
		for s.mergeable() {
			m := s.merged
			if c.fails[m] {
				failed = m
			} else {
				merged = append(merged, m)
			}
			s.advance(!c.fails[m])
		}
		return true
	}
	for lo := 0; ; k++ {
		s.reset(clocks, lo, n, c.window)
		if c.steps > 0 {
			s.openWindow(min(c.steps, n-lo))
		}
		for len(script) >= 2 && !s.finished() {
			step(int(script[0])%workers, script[1]%3 != 0, uint64(script[1]))
			script = script[2:]
		}
		for idle := 0; idle < 2; {
			idle++
			for w := range ws {
				if step(w, false, 0) {
					idle = 0
				}
			}
		}
		for _, r := range ws {
			if r.active || r.deciding {
				err = fmt.Errorf("morsel %d still running after the drain", r.v)
			}
		}
		if !s.finished() {
			err = fmt.Errorf("deadlock: morsel %d can never be assigned (clocks %v)", s.next, clocks)
		}
		if lo = s.next; err != nil || s.stopped || lo >= n {
			return pos, order, merged, clocks, failed, err
		}
	}
}

func checkLookahead(t *testing.T, data []byte) {
	c, script := decodeSched(data)
	wantPos, wantOrder, wantClocks := c.serialSchedule()
	wantFailed := -1
	if last := len(wantPos) - 1; c.fails[last] {
		wantFailed = last
	}
	workers := 1
	if len(script) > 0 {
		workers += int(script[0]) % len(c.entry)
	}
	pos, order, merged, clocks, failed, err := runLookahead(c, workers, script)
	if err != nil {
		t.Fatal(err)
	}
	// After a failure the scheduler may have handed out a few more morsels
	// than the serial one, which stops dead; up to there they must agree.
	if len(pos) < len(wantPos) || !slices.Equal(pos[:len(wantPos)], wantPos) {
		t.Fatalf("assignment sequence %v, serial argmin schedule %v", pos, wantPos)
	}
	if !slices.Equal(order[:len(wantOrder)], wantOrder) {
		t.Fatalf("orders the morsels ran %v, serial decision-time rule %v", order, wantOrder)
	}
	if failed != wantFailed {
		t.Fatalf("surfaced failure of morsel %d, serial scheduler stops at %d", failed, wantFailed)
	}
	wantMerged := len(wantPos)
	if wantFailed >= 0 {
		wantMerged--
	}
	if len(merged) != wantMerged {
		t.Fatalf("reduced %d morsels, want %d", len(merged), wantMerged)
	}
	for i, m := range merged {
		if m != i {
			t.Fatalf("reduction order %v is not ascending", merged)
		}
	}
	if wantFailed < 0 && !slices.Equal(clocks, wantClocks) {
		t.Fatalf("final clocks %v, serial %v", clocks, wantClocks)
	}
}

// FuzzLookaheadSchedule: for random per-(core, morsel) durations — including
// zero-duration skipped vectors, exact ties, and a core far behind — random
// interleavings of assign/publish/complete/decide events, random publication
// points and random worker counts, the lookahead scheduler hands out morsels
// in exactly the serial argmin order, reduces in ascending morsel order,
// surfaces the lowest failed morsel, and never deadlocks. In adaptive runs it
// also keeps the decision-time rule: a morsel picked before a step's decision
// time runs the step's order, one picked at or after it the next.
func FuzzLookaheadSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 7, 0, 0, 0, 0, 255})
	f.Add([]byte("\x03\x2f\x0b\x05\x00\x03\xff lookahead scheduling: morsels, clocks, certified picks"))
	f.Add([]byte("\x01\x10\x01\x02\xff one core, serial by construction, window of one ........"))
	f.Add([]byte("\x05\x1e\x02\x00\x00\x00\x00\x00\x04 a failing morsel in a tight window \x00\x01\x02\x03\x04\x00\x01\x02\x03"))
	f.Add([]byte("\x03\x2f\x0b\x07\x03\x00\x03\xff adaptive steps: window, decision on its last core, picks before T_d"))
	f.Add([]byte("\x04\x30\x09\x03\x00\x00\x00\x00\x00\xff window of one per step, decisions that cost nothing"))
	f.Fuzz(checkLookahead)
}

// TestMinVectorCyclesBoundsEveryLoop pins the certification invariant the
// lookahead scheduler rests on: no vector loop of any implementation spends
// fewer simulated cycles than minVectorCycles, on a full vector or a partial
// one, cold or warm, whether every row fails the first predicate or passes
// them all.
func TestMinVectorCyclesBoundsEveryLoop(t *testing.T) {
	const vs, partial = 1024, 300
	tb := testTable(t, vs+partial)
	type loop func(e *Engine, q *Query, lo, hi int) error
	vector := func(impl ScanImpl) loop {
		return func(e *Engine, q *Query, lo, hi int) error {
			_, err := e.RunVectorImpl(q, lo, hi, impl)
			return err
		}
	}
	grouped := func(e *Engine, q *Query, lo, hi int) error {
		g, err := NewGroupBy(e.CPU(), tb.Column("a"), tb.Column("v"), KeyDomain{Groups: 100})
		if err != nil {
			return err
		}
		_, err = e.GroupVector(q, g, lo, hi)
		return err
	}
	for _, c := range []struct {
		name           string
		scalar, noFuse bool
		run            loop
	}{
		{"branching fused", false, false, vector(ImplBranching)},
		{"branching unfused", false, true, vector(ImplBranching)},
		{"branching scalar", true, false, vector(ImplBranching)},
		{"branch-free", false, false, vector(ImplBranchFree)},
		{"branch-free scalar", true, false, vector(ImplBranchFree)},
		{"instrumented", false, false, vector(ImplInstrumented)},
		{"GroupVector", false, false, grouped},
		{"GroupVector scalar", true, false, grouped},
	} {
		for _, bound := range []int64{0, 100} {
			e := MustEngine(cpu.MustNew(cpu.ScaledXeon()), vs)
			e.SetScalar(c.scalar)
			e.SetFuse(!c.noFuse)
			q := buildQuery(t, tb, e, bound, 100)
			e.SetOpCounts(&OpCounts{Evaluated: make([]int64, len(q.Ops)), Passed: make([]int64, len(q.Ops))})
			width := e.CPU().Profile().IssueWidth
			for _, r := range [][2]int{{0, vs}, {vs, vs + partial}, {0, vs}, {vs, vs + partial}} {
				c0 := e.CPU().Cycles()
				if err := c.run(e, q, r[0], r[1]); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if d, min := e.CPU().Cycles()-c0, minVectorCycles(r[1]-r[0], width); d < min {
					t.Errorf("%s, a < %d, rows [%d, %d): %d cycles, below the certified minimum %d",
						c.name, bound, r[0], r[1], d, min)
				}
			}
		}
	}
}
