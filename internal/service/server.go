package service

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/storage"
	"progopt/internal/trace"
)

// Config configures a workload server.
type Config struct {
	// MaxActive is the admission controller's cap on admitted queries
	// (default: the pool's worker count). The oldest admitted query runs on
	// the whole pool and the others wait, each bound to its driver and
	// warm-started at admission; submissions beyond the cap queue in
	// (arrival, submission) order.
	MaxActive int
	// QueueLimit caps the pending queue; Submit rejects beyond it
	// (0 = unlimited).
	QueueLimit int
	// QuantumVectors is the scheduling quantum of fixed-order queries:
	// morsels per pool core between scheduling decisions (default 10,
	// matching the progressive drivers' default re-optimization interval).
	// Adaptive queries schedule at their own optimization-block granularity.
	QuantumVectors int
}

// feedbackCacheSize bounds the PMU-feedback cache, in plans.
const feedbackCacheSize = 64

// Request is one query submission.
type Request struct {
	// Spec is the query as the driver runs it: the compiled, bound query (its
	// operator order is the plan order the optimizer starts from), the mode
	// and optimizer options, and one group table or sort state per pool core
	// for a grouped or an ordered query; either schedules like a plain scan of
	// its mode. The server sets Quantum, from Config.QuantumVectors.
	Spec core.Spec
	// Storage, when non-nil, runs the query over a stored table: at
	// admission the server builds the query's own read-ahead stream from the
	// plan and puts it in the spec (core.Spec.Storage); core.Run reports the
	// query's morsels to it and, at completion, adds its shift to every
	// core's clock, so the query's Cycles and Done hold its stall and the
	// next query starts after it. Nothing else of this or any other query
	// moves; Outcome.Storage hands the stream and its counters back.
	Storage *storage.Plan
	// Arrival is the simulated time the query arrives at the server; it
	// cannot consume core cycles earlier.
	Arrival uint64
	// Fingerprint keys the feedback cache. Zero disables feedback for this
	// submission: no warm start, no converged order stored.
	Fingerprint Fingerprint
}

// Feedback is what a finished adaptive run leaves for the next submission of
// the same fingerprint: the operator order it converged to (plan-order
// indexes), for micro-adaptive runs the scan implementation it ended on, and
// the orders it saw validation roll back. A warm-started run begins at this
// order instead of the plan order and does not try the rejected ones again.
type Feedback struct {
	Order    []int
	Impl     exec.ScanImpl
	Rejected [][]int
}

// Stats counts server activity. All times are simulated.
type Stats struct {
	// Submitted/Admitted/Rejected/Completed count queries through the
	// admission controller.
	Submitted, Admitted, Rejected, Completed int
	// PeakActive and PeakQueued are high-water marks.
	PeakActive, PeakQueued int
	// FeedbackWarmStarts counts submissions that began at a cached
	// converged order; FeedbackStores counts completed adaptive runs that
	// deposited one.
	FeedbackWarmStarts, FeedbackStores int
	// Reopt sums the decision ledgers of the completed adaptive runs.
	Reopt core.Ledger
	// MakespanCycles is the largest per-core clock: the simulated time the
	// pool has been driven to.
	MakespanCycles uint64
	// LatencyCycles holds each completed query's Done-Arrival, in completion
	// order, which is the order of Done.
	LatencyCycles []uint64
	// ResidentBytes is the tier residency the stored query completed last
	// left behind, under its resident budget; 0 before any.
	ResidentBytes uint64
}

// Outcome reports one completed query.
type Outcome struct {
	// Result carries the per-query output: Qualifying, Sum, Counters (the
	// PMU deltas of exactly this query's morsels and coordination), and
	// Cycles/Millis as the query's execution span on the pool, a stored
	// query's tier stall included — for a query that found the pool idle,
	// bit-identical to a dedicated Engine run.
	exec.Result
	// Groups is the grouped-aggregation output (nil for plain scans).
	Groups []exec.Group
	// Sorted is the ordered output of an OrderBy/Limit query (nil
	// otherwise).
	Sorted []exec.SortedRow
	// Stats is the optimizer telemetry (zero-valued under core.ModeFixed);
	// FinalOrder is in plan-order indexes even after a warm start.
	Stats core.Stats
	// Arrival, Start, and Done are simulated timestamps; Done-Arrival is
	// the query's latency including queueing, Start-Arrival the queueing
	// delay alone.
	Arrival, Start, Done uint64
	// WarmStarted reports a feedback-cache warm start; WarmOrder is the
	// order it began at.
	WarmStarted bool
	WarmOrder   []int
	// Storage is a stored query's stream (nil otherwise), with the counters
	// and residency its run left behind.
	Storage *exec.Stream
}

// query states.
const (
	stateQueued = iota
	stateActive
	stateDone
)

// query is the scheduler's per-submission state.
type query struct {
	seq      int
	req      Request
	warm     []int // applied warm order (nil = cold)
	warmImpl exec.ScanImpl

	// stream is a stored query's read-ahead stream, built at admission and
	// owned by this query alone.
	stream *exec.Stream
	// run is the query's driver from admission to completion, recycled
	// through the server's freelist.
	run *core.Run

	arrival uint64
	// out is the finished query's outcome (WarmOrder is copied per Wait).
	out Outcome

	state int
	err   error
}

// Server runs many queries against one shared pool of simulated cores as a
// discrete-event simulation: per-core absolute clocks and morsel dispensing
// to the earliest-free core. The admission controller admits queries in
// (arrival, submission) order, and the oldest admitted query runs to
// completion on every core of the pool while the others wait; a core freed
// by a query's last morsel takes the next query's first. A core switching to
// a different query starts cold (cache flush + predictor reset), modeling the
// JIT'd per-query scan loop — so every served query executes exactly like a
// dedicated engine run from the clocks it found.
//
// There is no background goroutine and no host time anywhere: Ticket.Wait
// elects one waiter to drive scheduling rounds while the others park on the
// server's one condition variable, which each round that retires a query
// broadcasts. A round is one step of the oldest query's driver; the elected
// driver releases the lock while it runs, and every cross-query structure —
// the clock frontier, the feedback cache, admission stats, the service track
// — is read and written under the lock between steps. A fixed submission
// trace therefore yields bit-identical results, latencies, and makespan on
// every run, from any number of waiting goroutines, at any GOMAXPROCS — only
// host wall-clock changes.
type Server struct {
	mu   sync.Mutex
	pool *exec.Parallel
	cfg  Config

	// clock is the absolute simulated time each core is next free, written
	// only under mu; owner is the query the cores last executed (cold-switch
	// detection). clocks is the step's copy of clock, published when the step
	// succeeds.
	clock  []uint64
	owner  *query
	clocks []uint64

	queue []*query // waiting, sorted by (arrival, seq)
	// active holds the admitted queries in admission order; the first runs.
	active []*query
	seq    int

	// driving is true while an elected waiter runs a scheduling round; the
	// lock itself is released during the step, so other waiters and
	// operations that would touch engine state (SetTrace, Close) park on idle
	// while it is set.
	driving bool
	idle    *sync.Cond

	// runFree is the freelist of drivers, so steady-state serving allocates
	// no driver scratch.
	runFree []*core.Run

	feedback *LRU
	stats    Stats

	// tr, when non-nil, receives admission and scheduling events (submit,
	// admit, warm-start, done), stamped with simulated clocks and appended
	// only under mu — a pure observer of the deterministic simulation.
	tr *trace.Track
}

// New builds a server with its own pool of fresh worker cores of the given
// profile. The pool never allocates: submitted queries arrive bound by the
// pool that compiled them.
func New(prof cpu.Profile, workers, vectorSize int, cfg Config) (*Server, error) {
	if workers <= 0 {
		workers = 1
	}
	p, err := exec.NewParallel(prof, workers, vectorSize)
	if err != nil {
		return nil, err
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = workers
	}
	if cfg.QuantumVectors <= 0 {
		cfg.QuantumVectors = 10
	}
	s := &Server{
		pool:     p,
		cfg:      cfg,
		clock:    make([]uint64, workers),
		clocks:   make([]uint64, workers),
		feedback: NewLRU(feedbackCacheSize),
	}
	s.idle = sync.NewCond(&s.mu)
	return s, nil
}

// Workers returns the pool size.
func (s *Server) Workers() int { return s.pool.Workers() }

// MatchEngine puts the pool on the execution path e runs: its row loop when
// e is scalar, its unfused kernel pipeline when e is unfused. Both are
// reference paths only tests select (exec.Engine.SetScalar/SetFuse); a
// server built on such an engine must serve what the engine executes.
func (s *Server) MatchEngine(e *exec.Engine) {
	s.pool.SetScalar(e.Scalar())
	s.pool.SetFuse(e.Fused())
}

// SetTrace attaches (or, with nils, detaches) event tracks: svc receives the
// server's admission and scheduling events, cores the per-pool-core execution
// spans (passed through to the pool; shorter slices detach the remainder).
// Tracing is a pure observer — it charges no simulated work, so traced and
// untraced serves are bit-identical in every outcome and clock.
func (s *Server) SetTrace(svc *trace.Track, cores []*trace.Track) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.driving {
		s.idle.Wait()
	}
	s.tr = svc
	s.pool.SetTrace(cores)
}

// Close releases the pool's host worker goroutines, if any were started
// (multi-core hosts only; see exec.Parallel.Close). The server must be
// drained first.
func (s *Server) Close() {
	s.mu.Lock()
	for s.driving {
		s.idle.Wait()
	}
	s.mu.Unlock()
	s.pool.Close()
}

// Now returns the earliest simulated time any core can take new work — the
// default arrival stamp for submissions that do not carry one. The driver
// releases mu while a round's step runs, so it never waits on one.
func (s *Server) Now() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Min(s.clock)
}

// Stats snapshots the server counters. Like Now, it never waits on an
// in-flight round.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MakespanCycles = slices.Max(s.clock)
	st.LatencyCycles = slices.Clone(st.LatencyCycles)
	return st
}

// Ticket is the handle to one submission.
type Ticket struct {
	s *Server
	q *query
}

// Submit enqueues a query. The call only validates, consults the feedback
// cache, and queues; execution happens inside Ticket.Wait's scheduling
// rounds. Submissions are ordered by (Arrival, submission sequence); for a
// deterministic workload, submit the trace in order before (or while)
// waiting.
func (s *Server) Submit(req Request) (*Ticket, error) {
	// Fixed-order scans run in quanta of QuantumVectors morsels per core.
	req.Spec.Quantum = s.cfg.QuantumVectors
	if err := req.Spec.Validate(s.pool.Workers()); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted++
	if s.cfg.QueueLimit > 0 && len(s.queue) >= s.cfg.QueueLimit {
		s.stats.Rejected++
		return nil, fmt.Errorf("service: queue full (%d pending, limit %d)", len(s.queue), s.cfg.QueueLimit)
	}
	q := &query{seq: s.seq, req: req, arrival: req.Arrival, state: stateQueued}
	s.seq++

	i := sort.Search(len(s.queue), func(i int) bool {
		o := s.queue[i]
		return o.arrival > q.arrival || (o.arrival == q.arrival && o.seq > q.seq)
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = q
	if len(s.queue) > s.stats.PeakQueued {
		s.stats.PeakQueued = len(s.queue)
	}
	if s.tr != nil {
		s.tr.Instant("submit", q.arrival,
			trace.Int("seq", q.seq), trace.String("mode", req.Spec.Mode.String()),
			trace.Int("queued", len(s.queue)))
	}
	return &Ticket{s: s, q: q}, nil
}

// Wait drives scheduling rounds until the ticket's query completes and
// returns its outcome. Safe to call from any goroutine: one waiter is
// elected to drive each round while the others park on idle, so the
// simulation advances exactly once per round no matter how many goroutines
// wait — and which goroutine happens to drive cannot influence any simulated
// observable. Only a round that retires a query (finished or failed) or
// panics broadcasts idle: parked waiters then recheck theirs, and one takes
// over when the driver leaves.
func (t *Ticket) Wait() (Outcome, error) {
	s := t.s
	q := t.q
	s.mu.Lock()
	defer s.mu.Unlock()
	for q.state != stateDone {
		if s.driving {
			s.idle.Wait()
			continue
		}
		s.driving = true
		func() {
			wake := true // a panic escaping the round wakes every waiter
			defer func() {
				s.driving = false
				if wake {
					s.idle.Broadcast()
				}
			}()
			wake = s.driveRound()
		}()
	}
	if q.err != nil {
		return Outcome{}, q.err
	}
	out := q.out
	out.WarmOrder = slices.Clone(q.warm)
	return out, nil
}

// driveRound runs one scheduling round: admit what has arrived, then one
// step of the oldest admitted query's driver on every core of the pool.
// Called (and returns) with s.mu held; the lock is released during the step,
// which touches only the pool and the query's own state. The step runs on a
// copy of the clocks, published only when it succeeds: a step that fails
// retires its query alone, leaving the clocks and every other query as they
// were. It reports whether the round retired a query: finished it, or failed
// it or its admission.
func (s *Server) driveRound() (retired bool) {
	retired = s.admitLocked()
	if len(s.active) == 0 {
		// Admission jumps an idle pool to the next arrival, so nothing is
		// left to run: the waiter's query failed its admission.
		return retired
	}
	q := s.active[0]
	// Cold context switch: cores picking up a different query than they last
	// ran flush their caches and reset their predictors (per-query JIT'd scan
	// loops share no code or hot data), and no core runs a query before it
	// arrived.
	if s.owner != q {
		for _, e := range s.pool.Engines() {
			e.CPU().Cold()
		}
		s.owner = q
	}
	for i, c := range s.clock {
		s.clocks[i] = max(c, q.arrival)
	}
	s.mu.Unlock()
	relocked := false
	defer func() {
		if !relocked {
			s.mu.Lock()
		}
	}()
	done, err := q.run.Step(s.clocks)
	s.mu.Lock()
	relocked = true
	switch {
	case err != nil:
		q.err = err
		s.retireLocked(q)
	case done:
		copy(s.clock, s.clocks)
		s.finishLocked(q)
	default:
		copy(s.clock, s.clocks)
		return retired
	}
	s.active = s.active[1:]
	return true
}

// admitLocked moves queued queries into the active set up to MaxActive,
// honoring simulated arrival times: a query is admitted only once the
// pool's clock frontier has reached its arrival — admitting it earlier would
// warm-start it from feedback that a real server could not have seen yet.
// An idle pool jumps straight to the next arrival. It reports whether a
// query failed to prepare, which retires it.
func (s *Server) admitLocked() (failed bool) {
	// The frontier is the earliest time any core can take new work.
	now := slices.Min(s.clock)
	for len(s.queue) > 0 && len(s.active) < s.cfg.MaxActive {
		head := s.queue[0]
		if head.arrival > now {
			if len(s.active) > 0 {
				break
			}
			now = head.arrival
		}
		s.queue = s.queue[1:]
		if err := s.prepareLocked(head); err != nil {
			head.err = err
			head.state = stateDone
			failed = true
			continue
		}
		head.state = stateActive
		s.active = append(s.active, head)
		s.stats.Admitted++
		if len(s.active) > s.stats.PeakActive {
			s.stats.PeakActive = len(s.active)
		}
		if s.tr != nil {
			s.tr.Instant("admit", now,
				trace.Int("seq", head.seq), trace.Int("active", len(s.active)),
				trace.Int("queued", len(s.queue)))
			if head.warm != nil {
				s.tr.Instant("warm-start", now,
					trace.Int("seq", head.seq), trace.Ints("order", head.warm),
					trace.Bool("impl", head.warmImpl == exec.ImplBranchFree))
			}
		}
	}
	return failed
}

// prepareLocked readies a query for execution at admission time: build a
// stored query's stream, hand it a recycled driver, begin the query on it,
// and warm-start it from the feedback cache — admission, not submission, is
// when the latest completed run of the same fingerprint is visible, exactly
// like a real server racing recurring queries.
func (s *Server) prepareLocked(q *query) error {
	req := &q.req
	spec := req.Spec
	if req.Storage != nil {
		stream, err := req.Storage.NewStream()
		if err != nil {
			return err
		}
		q.stream, spec.Storage = stream, stream
	}
	var run *core.Run
	if n := len(s.runFree); n > 0 {
		run = s.runFree[n-1]
		s.runFree[n-1] = nil
		s.runFree = s.runFree[:n-1]
	} else {
		run = core.NewRun(s.pool)
	}
	if err := run.Begin(spec); err != nil {
		s.runFree = append(s.runFree, run)
		return err
	}
	if step := run.Stepper(); step != nil && !req.Fingerprint.Zero() {
		if v, ok := s.feedback.Get(req.Fingerprint); ok {
			fb := v.(Feedback)
			if step.WarmStart(fb.Order, fb.Impl, fb.Rejected) == nil {
				q.warm, q.warmImpl = fb.Order, fb.Impl
				s.stats.FeedbackWarmStarts++
			}
		}
	}
	q.run = run
	return nil
}

// retireLocked marks a query done and recycles its driver.
func (s *Server) retireLocked(q *query) {
	q.state = stateDone
	s.runFree = append(s.runFree, q.run)
	q.run = nil
}

// finishLocked completes a query: stamp times, snapshot optimizer stats,
// record its latency and a stored query's residency, deposit the converged
// order and the rejected ones in the feedback cache, and recycle the driver.
// Queries complete in order of Done.
func (s *Server) finishLocked(q *query) {
	run := q.run
	// Every core is free once the slowest is.
	done := slices.Max(s.clock)
	q.out = Outcome{
		Result: run.Result, Groups: run.Groups, Sorted: run.Sorted, Stats: run.Stats(),
		Arrival: q.arrival, Start: run.Start, Done: done,
		WarmStarted: q.warm != nil,
		Storage:     q.stream,
	}
	if step := run.Stepper(); step != nil {
		s.stats.Reopt.Add(q.out.Stats.Ledger)
		if !q.req.Fingerprint.Zero() {
			s.feedback.Put(q.req.Fingerprint, Feedback{
				Order:    slices.Clone(q.out.Stats.FinalOrder),
				Impl:     step.Impl(),
				Rejected: step.Rejected(),
			})
			s.stats.FeedbackStores++
		}
	}
	s.retireLocked(q)
	s.stats.Completed++
	s.stats.LatencyCycles = append(s.stats.LatencyCycles, done-q.arrival)
	if q.stream != nil {
		s.stats.ResidentBytes = q.stream.ResidentBytes()
	}
	if s.tr != nil {
		s.tr.Span("query", run.Start, done,
			trace.Int("seq", q.seq), trace.Uint64("latency", done-q.arrival),
			trace.Uint64("queue_wait", run.Start-q.arrival), trace.Int64("qual", run.Qualifying))
	}
}
