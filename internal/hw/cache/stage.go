package cache

import (
	"runtime"
	"sync/atomic"
	"time"
)

// A staged hierarchy runs its two halves on two host threads: the caller's
// thread runs L1 and hands the L1 misses, in order, through a ring to a helper
// thread that runs the levels below (lower.run). This is exact because the
// lower half never reaches back: fills are inclusive and nothing below L1
// invalidates a line above it, so L1's contents, recency and counters are a
// function of L1's own op stream, and the lower half's of the misses in order,
// whenever they are simulated. What the caller cannot know at once is where
// each miss hit, so a staged load run reports its misses as RunHits.Lower and
// Drain returns their levels later; every read of the lower half's state
// (Counters, Flush, Load's miss path) first lets the helper catch up.
//
// When no helper has joined yet and the caller must wait — for room in the
// ring or for a read — the caller borrows the lower half and simulates the
// backlog itself, so a stage never depends on a helper turning up. A helper
// that joins later takes over from where the borrow left off.

// stageLines is the ring's capacity in line ids (32 KB): a few vectors' worth
// of a scan's L1 misses, so the caller rarely waits for room.
const stageLines = 1 << 12

// Stage states. Only the caller opens and closes a stage; a helper moves it
// from open to served and back, the caller from open to borrowed and back.
const (
	stageClosed int32 = iota
	stageOpen
	stageServed
	stageBorrowed
)

// stage is the hand-off between the two halves of a staged hierarchy. The
// cursors count line ids since the first Stage; each sits in a 128-byte
// sector of its own, written by one thread at a time (pinned by
// TestLayoutNoFalseSharing).
type stage struct {
	// head counts the line ids pushed into ring; only the caller writes it.
	head atomic.Uint64
	// room is the caller's last reading of tail plus stageLines: how far it
	// may push, and up to where it knows the helper is done, without reading
	// the helper's sector. drained is head at the last Drain.
	room, drained uint64
	_             [104]byte

	// tail counts the line ids simulated below L1, and pend is their level
	// counts not yet drained. The lower half's holder writes both: the helper
	// while it serves, the caller while it borrows.
	tail atomic.Uint64
	pend RunHits
	// helped counts the line ids a helper simulated, over the stage's life.
	helped uint64
	_      [72]byte

	state atomic.Int32
	stop  atomic.Bool
	ring  []uint64
	_     [96]byte
}

// A helper that finds the ring empty keeps polling it for stageSpin: the
// next step of a stepped query follows within microseconds. Then it lets the
// stage go, so a caller that must wait simulates the backlog itself, and
// looks again every stageNap until stageLinger has passed without work.
// Waking a parked helper from a driver that never blocks takes milliseconds
// (the runtime queues it behind the driver until another processor steals
// it), while a napping one wakes on its own timer and does not hold a
// processor meanwhile.
const (
	stageSpin   = time.Millisecond
	stageNap    = 200 * time.Microsecond
	stageLinger = 20 * time.Millisecond
)

// Stage makes the hierarchy hand its L1 misses to a helper thread, which
// joins by calling ServeStage, until Unstage, and reports whether the stage
// has no helper serving it — whether to invite one.
func (h *Hierarchy) Stage() bool {
	s := h.sg
	if h.staged {
		return s.state.Load() != stageServed
	}
	if s == nil {
		s = &stage{ring: sectorSlice[uint64](stageLines)}
		h.sg = s
	}
	s.room = s.tail.Load() + stageLines
	s.stop.Store(false)
	s.state.Store(stageOpen)
	h.staged = true
	return true
}

// ServeStage simulates the lower half of a staged hierarchy on the calling
// thread until Unstage, or until it has found no work for stageLinger. Only
// one helper serves a stage at a time: any other, and any that comes after
// Unstage, returns at once.
func (h *Hierarchy) ServeStage() {
	s := h.sg
	for spins := 0; !s.state.CompareAndSwap(stageOpen, stageServed); spins = pause(spins) {
		if st := s.state.Load(); st == stageServed || st == stageClosed {
			return
		}
	}
	for h.serve() {
		s.state.Store(stageOpen)
		if !s.nap() {
			return
		}
	}
	s.state.Store(stageOpen)
}

// serve simulates handed-off misses as they come. It returns false on
// Unstage, and true once the ring has stayed empty for stageSpin.
func (h *Hierarchy) serve() bool {
	s := h.sg
	var idleSince time.Time
	for idle := 0; ; idle++ {
		if s.tail.Load() != s.head.Load() {
			h.catchUp(true)
			idle = -1
			continue
		}
		// The caller sets stop only once tail has reached its last head.
		if s.stop.Load() {
			return false
		}
		if idle&1023 == 0 {
			// Every few microseconds: let other goroutines have the
			// processor, and stop spinning after stageSpin.
			if idle == 0 {
				idleSince = time.Now()
			} else if time.Since(idleSince) > stageSpin {
				return true
			} else {
				runtime.Gosched()
			}
		}
	}
}

// nap looks at a released stage every stageNap and takes it back when work
// has come, which it reports. It gives up after stageLinger, on Unstage, or
// when another helper serves the stage.
func (s *stage) nap() bool {
	for start := time.Now(); time.Since(start) < stageLinger; {
		time.Sleep(stageNap)
		if s.stop.Load() {
			return false
		}
		if s.tail.Load() != s.head.Load() && s.state.CompareAndSwap(stageOpen, stageServed) {
			return true
		}
		if st := s.state.Load(); st == stageServed || st == stageClosed {
			return false
		}
	}
	return false
}

// Unstage returns a staged hierarchy to inline operation once the lower half
// has caught up and its helper, if one serves, has left. The levels the
// handed-off misses hit stay for Drain.
func (h *Hierarchy) Unstage() {
	if !h.staged {
		return
	}
	h.wait()
	s := h.sg
	s.stop.Store(true)
	for spins := 0; !s.state.CompareAndSwap(stageOpen, stageClosed); spins = pause(spins) {
	}
	h.staged = false
}

// Drain returns the level counts of the misses handed off since the last
// Drain (RunHits.Lower of the runs that reported them), once the lower half
// has simulated them. It returns nothing on a hierarchy never staged.
func (h *Hierarchy) Drain() RunHits {
	s := h.sg
	if s == nil {
		return RunHits{}
	}
	head := s.head.Load()
	if head == s.drained {
		return RunHits{}
	}
	h.settle(head)
	p := s.pend
	s.pend = RunHits{}
	s.drained = head
	return p
}

// HelperLines returns how many L1 misses helper threads have simulated below
// L1 for this hierarchy (ServeStage), over its life.
func (h *Hierarchy) HelperLines() uint64 {
	if h.sg == nil {
		return 0
	}
	h.wait()
	return h.sg.helped
}

// push hands L1 misses to the lower half, waiting for room in the ring.
func (h *Hierarchy) push(miss []uint64) {
	s := h.sg
	head := s.head.Load()
	for len(miss) > 0 {
		if head == s.room {
			h.settle(head - stageLines + uint64(len(miss)))
		}
		i := head % stageLines
		n := copy(s.ring[i:min(stageLines, i+s.room-head)], miss)
		miss = miss[n:]
		head += uint64(n)
		s.head.Store(head)
	}
}

// wait returns once the lower half has simulated every handed-off miss.
func (h *Hierarchy) wait() {
	if h.staged {
		h.settle(h.sg.head.Load())
	}
}

// settle returns once the lower half has simulated the misses up to line id
// count n (at most head): on the helper, or — while none serves the stage —
// on the caller, which borrows the lower half and catches it up.
func (h *Hierarchy) settle(n uint64) {
	s := h.sg
	if n+stageLines <= s.room {
		return
	}
	if t := s.tail.Load(); t >= n {
		s.room = t + stageLines
		return
	}
	for spins := 0; ; spins = pause(spins) {
		if t := s.tail.Load(); t >= n {
			s.room = t + stageLines
			return
		}
		if s.state.Load() == stageOpen && s.state.CompareAndSwap(stageOpen, stageBorrowed) {
			h.catchUp(false)
			s.state.Store(stageOpen)
			s.room = s.tail.Load() + stageLines
			return
		}
	}
}

// catchUp simulates every handed-off miss the lower half has not seen, a
// chunk at a time, publishing tail after each. The calling thread must hold
// the lower half: the helper, or the caller while it borrows.
func (h *Hierarchy) catchUp(helper bool) {
	s := h.sg
	tail, head := s.tail.Load(), s.head.Load()
	for tail != head {
		i := tail % stageLines
		n := min(head-tail, stageLines-i, chunkLines)
		s.pend = s.pend.Plus(h.lo.run(s.ring[i : i+n]))
		if helper {
			s.helped += n
		}
		tail += n
		s.tail.Store(tail)
	}
}

// pause is one round of a wait on the other thread: a spin that yields the
// processor every few microseconds, for other goroutines — the other thread's
// included, when the two share one.
func pause(spins int) int {
	if spins&1023 == 1023 {
		runtime.Gosched()
	}
	return spins + 1
}
