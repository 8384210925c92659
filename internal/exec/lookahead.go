package exec

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the scheduling rule of the morsel executor, free of engines
// and queries so it can be table-tested and fuzzed on synthetic durations
// (lookahead_test.go): who gets the next morsel, when that choice is safe to
// make before the morsels still running have finished, and in which order
// finished morsels are reduced.
//
// The reference is the serial scheduler: morsels in ascending index, each to
// the core that is idle first in simulated time — the smallest clock, ties to
// the lowest position. Conservative lookahead reproduces exactly that
// assignment sequence while morsels overlap on the host. A running core
// publishes a lower bound on the clock it will finish at; the next morsel is
// handed to the idle core with the smallest clock as soon as that clock is
// strictly below every running core's bound. Each running core finishes at or
// after its bound, hence strictly after the candidate's clock, so whatever
// the running morsels' durations turn out to be, the serial scheduler would
// have picked the same core; the strict inequality makes a tie with a running
// core impossible, which keeps the lowest-position tie rule intact. When the
// choice cannot be certified yet, the caller waits: bounds only rise (the
// simulated clock is monotone) and a running morsel always completes.
//
// An adaptive step adds one rule, the decision time (window). Its first
// morsels are a window whose counters the step decides on; when the last of
// them completes, at T_end on position j (ties to the lowest), the decision
// is taken on j, which is busy with it until T_d = T_end plus what it cost.
// The other positions keep taking morsels under the step's order while their
// clock is below T_d; the first pick at or after T_d belongs to the next
// step, which runs the new order, so assignment ends there. Which side of T_d
// a pick falls on is a fact of the simulated clock: a pick certified while a
// window morsel is in flight is below that morsel's bound, hence below T_end;
// once the window has completed, picks wait until T_d is known.

// progressCell is one simulated core's published clock: a lower bound on the
// block-absolute time the core is next free, written by the host thread
// running the core and read by whichever thread schedules next. Each cell
// fills a 128-byte sector of its own so a publishing core never invalidates
// the line another core's cell lives on.
type progressCell struct {
	clock atomic.Uint64
	_     [120]byte
}

// certify chooses the core for the next morsel: the idle position with the
// smallest clock (ties to the lowest), provided its clock is strictly below
// bounds[j] for every in-flight position j. clocks[j] is exact for idle
// positions; bounds[j] is a lower bound on position j's next-free time and
// is read only where inFlight[j]. When the choice cannot be certified it
// returns pos -1 and the in-flight position whose bound is in the way (-1 if
// every position is in flight), plus the candidate's clock, which that bound
// has to exceed.
func certify(clocks, bounds []uint64, inFlight []bool) (pos, blocker int, at uint64) {
	pos = -1
	for j, busy := range inFlight {
		if !busy && (pos < 0 || clocks[j] < clocks[pos]) {
			pos = j
		}
	}
	if pos < 0 {
		return -1, -1, 0
	}
	for j, busy := range inFlight {
		if busy && clocks[pos] >= bounds[j] {
			return -1, j, clocks[pos]
		}
	}
	return pos, -1, clocks[pos]
}

// lookahead is the scheduler state of one block: morsels [next, hi) are
// unassigned, morsels below merged are reduced, and the ones in between are
// running or waiting for their turn in the reduction. All fields but cells
// and gen are guarded by the owner's lock.
type lookahead struct {
	// clocks[j] is the block-absolute time position (core) j is next free
	// (the caller's slice, updated as morsels complete).
	clocks   []uint64
	inFlight []bool
	// minEnd[j] is the entry clock of position j's running morsel plus its
	// guaranteed minimum duration; the position's bound is the larger of
	// this and its published clock.
	minEnd []uint64
	bounds []uint64 // certify scratch
	cells  []progressCell

	next, hi int
	merged   int
	// done is a ring over morsels [merged, merged+len(done)): done[v%len]
	// says morsel v has completed and waits to be reduced. Assignment stalls
	// when the window is full, which bounds the buffered results.
	done []bool
	// stopped ends assignment after a failed morsel; broken ends reduction
	// at the first failed morsel in index order.
	stopped, broken bool
	// The window (see above): morsels below winHi, winLeft of them yet to
	// complete, the latest completion winEnd so far on position winPos.
	// decideAt is T_d once known, the largest clock before.
	winHi, winLeft int
	winEnd         uint64
	winPos         int
	decideAt       uint64
	// gen counts completions, so a waiting scheduler can tell "something
	// finished" from "nothing changed" without taking the lock.
	gen atomic.Uint32
}

// reset prepares the state for morsels [lo, hi) over len(clocks) positions
// with room for window completed-but-unreduced morsels.
func (l *lookahead) reset(clocks []uint64, lo, hi, window int) {
	n := len(clocks)
	if cap(l.inFlight) < n {
		l.inFlight = make([]bool, n)
		l.minEnd = make([]uint64, n)
		l.bounds = make([]uint64, n)
		l.cells = make([]progressCell, n)
	}
	l.clocks = clocks
	l.inFlight, l.minEnd, l.bounds, l.cells = l.inFlight[:n], l.minEnd[:n], l.bounds[:n], l.cells[:n]
	clear(l.inFlight)
	if cap(l.done) < window {
		l.done = make([]bool, window)
	}
	l.done = l.done[:window]
	clear(l.done)
	l.next, l.hi, l.merged = lo, hi, lo
	l.stopped, l.broken = false, false
	l.winHi, l.winLeft, l.winEnd, l.winPos, l.decideAt = lo, 0, 0, -1, math.MaxUint64
}

// openWindow makes the block's first n morsels its decision window.
func (l *lookahead) openWindow(n int) {
	l.winHi, l.winLeft = l.next+n, n
}

// finished reports that no morsel is left to hand out.
func (l *lookahead) finished() bool { return l.stopped || l.next >= l.hi }

// assign tries to hand out morsel l.next, whose guaranteed minimum duration
// is minDur. On success it returns the chosen position and advances next;
// otherwise pos is -1 and the caller should await (blocker, at, gen) before
// trying again.
func (l *lookahead) assign(minDur uint64) (pos, blocker int, at uint64) {
	if l.next-l.merged >= len(l.done) {
		return -1, -1, 0 // ring full: wait for a completion
	}
	if l.next >= l.winHi && l.winLeft == 0 && l.winPos >= 0 && l.decideAt == math.MaxUint64 {
		return -1, -1, 0 // the decision is being taken: wait for T_d
	}
	for j, busy := range l.inFlight {
		if busy {
			l.bounds[j] = max(l.minEnd[j], l.cells[j].clock.Load())
		}
	}
	pos, blocker, at = certify(l.clocks, l.bounds, l.inFlight)
	if pos < 0 {
		return -1, blocker, at
	}
	if at >= l.decideAt {
		// The next step's first pick: every running core finishes after at,
		// so no pick before T_d is left.
		l.hi = l.next
		l.gen.Add(1)
		return -1, -1, 0
	}
	l.inFlight[pos], l.minEnd[pos] = true, at+minDur
	// A cell may still hold a clock from an earlier block, whose time base
	// need not be this one's.
	l.cells[pos].clock.Store(at)
	l.next++
	return pos, -1, at
}

// await pauses until a failed assign is worth retrying: a morsel completed
// (gen moved) or the blocking core published a clock above at.
func (l *lookahead) await(blocker int, at uint64, gen uint32) {
	var w waiter
	for l.gen.Load() == gen && (blocker < 0 || l.cells[blocker].clock.Load() <= at) {
		w.pause()
	}
}

// waiter paces a wait for another host thread's progress. Such waits are
// normally a fraction of a morsel long — microseconds to a few hundred —
// while a sleeping thread comes back a millisecond later (timer wake-up
// granularity) and a parked one tens of microseconds after it is woken. So
// pause first just yields the processor and lets the caller look again, for
// about as long as a sleep would cost. A wait that outlasts spinYields looks
// means the thread waited for is not running (more runnable threads than host
// CPUs, or a descheduled virtual CPU); spinning on would only take its
// processor away, so from then on pause sleeps.
type waiter int

const (
	spinYields = 4096 // about a millisecond of yields on an otherwise idle processor
	sleepFor   = 50 * time.Microsecond
)

func (w *waiter) pause() {
	if *w < spinYields {
		*w++
		runtime.Gosched()
		return
	}
	time.Sleep(sleepFor)
}

// complete records that position pos finished morsel v at block-absolute
// clock end; failed stops further assignment. It reports whether that
// completed the window, in a block that goes on: the caller then takes the
// decision on winPos and hands its time to decide.
func (l *lookahead) complete(pos, v int, end uint64, failed bool) (decide bool) {
	l.clocks[pos] = end
	l.inFlight[pos] = false
	l.done[v%len(l.done)] = true
	if failed {
		l.stopped = true
	}
	if v < l.winHi {
		if l.winPos < 0 || end > l.winEnd || end == l.winEnd && pos < l.winPos {
			l.winEnd, l.winPos = end, pos
		}
		l.winLeft--
		decide = l.winLeft == 0 && !l.stopped
	}
	l.gen.Add(1)
	return decide
}

// decide publishes T_d, the time the window's decision left position winPos
// free, and lets assignment go on.
func (l *lookahead) decide(at uint64) {
	l.clocks[l.winPos], l.decideAt = at, at
	l.gen.Add(1)
}

// mergeable reports whether morsel l.merged has completed and is next in the
// reduction order.
func (l *lookahead) mergeable() bool {
	return !l.broken && l.done[l.merged%len(l.done)]
}

// advance retires morsel l.merged from the window after its reduction; ok
// false (the morsel had failed) ends the reduction there.
func (l *lookahead) advance(ok bool) {
	l.done[l.merged%len(l.done)] = false
	l.merged++
	l.broken = !ok
	l.gen.Add(1) // window space is a reason to retry, too
}
