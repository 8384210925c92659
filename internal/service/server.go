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
	// MaxActive is the admission controller's cap on queries sharing the
	// pool concurrently (default: the pool's worker count). Submissions
	// beyond it queue in (arrival, submission) order.
	MaxActive int
	// QueueLimit caps the pending queue; Submit rejects beyond it
	// (0 = unlimited).
	QueueLimit int
	// QuantumVectors is the scheduling quantum of fixed-order queries:
	// morsels per assigned core between scheduling decisions (default 10,
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
	// admission the server builds the query's own stored-scan state from the
	// plan, one per pool core (the plan's skip verdicts, a private tier view),
	// and puts it in the spec (core.Spec.Storage); core.Run attaches it to
	// every core a segment runs on and adds the slowest core's stall debt to
	// the query's Cycles. The tier is a pure observer — it changes no other
	// simulated observable of this or any co-scheduled query, and no clock;
	// Outcome.Storage hands the views and their counters back.
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
	// LatencyCycles holds each completed query's Done-Arrival, in the order
	// the round barriers completed them.
	LatencyCycles []uint64
	// ResidentBytes is the tier residency the stored query with the latest
	// Done left behind (ties to the later submission), summed over its
	// per-core views, each under its own budget; 0 before any.
	ResidentBytes uint64
}

// Outcome reports one completed query.
type Outcome struct {
	// Result carries the per-query output: Qualifying, Sum, Counters (the
	// PMU deltas of exactly this query's morsels and coordination), and
	// Cycles/Millis as the query's execution span on its cores plus a stored
	// query's largest per-core tier stall — for a query that had the pool to
	// itself, bit-identical to a dedicated Engine run.
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
	// Storage is a stored query's per-core tier views (nil otherwise), with
	// the counters and residency its run left behind.
	Storage []*exec.StorageScan
}

// query states.
const (
	stateQueued = iota
	stateActive
	stateDone
)

// segScratch is what a query executes its segments with: the driver, with its
// block-run context (a grouped query's accumulator and survivor buffers are
// part of it), and the subset's clocks between a segment's locked begin phase
// and the round barrier. Recycled through the server's freelist at completion,
// so steady-state rounds allocate nothing.
type segScratch struct {
	run    *core.Run
	clocks []uint64
}

// query is the scheduler's per-submission state.
type query struct {
	seq      int
	req      Request
	warm     []int // applied warm order (nil = cold)
	warmImpl exec.ScanImpl

	// optReal/optStage stage the optimizer trace: the stepper writes its
	// decision events into the private stage, and the round barrier splices
	// the stage into the real track in active order — the exact append order
	// the serial scheduler produces, even when segments ran host-concurrent.
	optReal  *trace.Track
	optStage *trace.Track

	cores []int // current core subset, ascending; empty = descheduled
	// views is a stored query's stored-scan state, one per pool core, built
	// at admission and owned by this query alone.
	views []*exec.StorageScan

	// Segment-execution plumbing: sc is the recycled scratch, fn the
	// prebuilt closure the host pool runs (allocated once per query), and
	// segErr/segPanic carry the unlocked phase's failure to the barrier.
	sc          *segScratch
	fn          func()
	segErr      error
	segPanic    any
	segPanicked bool
	// finished marks a segment that completed its query; the barrier turns it
	// into finishLocked under the lock.
	finished bool

	arrival uint64
	// out is the finished query's outcome (WarmOrder is copied per Wait).
	out Outcome

	state int
	err   error
}

// Server runs many concurrent queries against one shared pool of simulated
// cores as a discrete-event simulation: per-core absolute clocks, morsel
// dispensing to the earliest-free core of each query's subset, and a fair
// partitioner that splits the pool across active queries (re-partitioned
// whenever admissions or completions change the active set; rotated every
// round when queries outnumber cores). A core switching to a different
// query starts cold (cache flush + predictor reset), modeling the JIT'd
// per-query scan loop — so a query that has the pool to itself executes
// exactly like a dedicated engine run.
//
// There is no background goroutine and no host time anywhere: Ticket.Wait
// elects one waiter to drive scheduling rounds while the others park on the
// server's one condition variable, which each round that retires a query
// broadcasts. Within a round the elected driver releases the lock and
// executes the scheduled queries' segments concurrently on the host (their
// core subsets are disjoint, so segments share no simulated state); every
// cross-query structure — the clock frontier, the feedback cache, admission
// stats, the service and optimizer trace tracks — is read in the locked
// admission phase and written at the locked round barrier, in admission
// order. A fixed submission trace therefore yields bit-identical
// results, latencies, and makespan on every run, from any number of waiting
// goroutines, at any GOMAXPROCS — only host wall-clock changes.
type Server struct {
	mu   sync.Mutex
	pool *exec.Parallel
	cfg  Config

	// clock is the absolute simulated time each core is next free, written
	// only under mu; owner is the query each core last executed (cold-switch
	// detection).
	clock []uint64
	owner []*query

	queue  []*query // waiting, sorted by (arrival, seq)
	active []*query // admitted, in admission order
	seq    int
	rounds uint64

	membershipChanged bool

	// driving is true while an elected waiter runs a scheduling round; the
	// lock itself is released during the round's execution phase, so other
	// waiters and operations that would touch engine state (SetTrace,
	// Close) park on idle while it is set.
	driving bool
	idle    *sync.Cond

	// Round scratch, reused every round so steady-state serving allocates
	// nothing: sched is the round's scheduled-query snapshot, fns the
	// segment closures handed to the host pool, and scratchFree the
	// segScratch freelist.
	sched       []*query
	fns         []func()
	scratchFree []*segScratch

	feedback *LRU
	stats    Stats
	// resDone and resSeq stamp the stored query stats.ResidentBytes reports;
	// resSeq is -1 before any.
	resDone uint64
	resSeq  int

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
		pool:              p,
		cfg:               cfg,
		clock:             make([]uint64, workers),
		owner:             make([]*query, workers),
		membershipChanged: true,
		feedback:          NewLRU(feedbackCacheSize),
		resSeq:            -1,
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
// releases mu while a round's segments run, so it never waits on one.
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
			retired, err := s.driveRound()
			if err != nil {
				s.failAllLocked(err)
			}
			wake = retired || err != nil
		}()
	}
	if q.err != nil {
		return Outcome{}, q.err
	}
	out := q.out
	out.WarmOrder = slices.Clone(q.warm)
	return out, nil
}

// failAllLocked marks every unfinished query failed — scheduler errors
// (estimator failures, invalid permutations) poison the shared simulation.
// The failed round's broadcast wakes their waiters.
func (s *Server) failAllLocked(err error) {
	for _, q := range s.active {
		q.err = err
		q.state = stateDone
	}
	for _, q := range s.queue {
		q.err = err
		q.state = stateDone
	}
	s.active = s.active[:0]
	s.queue = s.queue[:0]
}

// driveRound runs one scheduling round. Called (and returns) with s.mu held;
// the lock is released during the execution phase, in which the scheduled
// queries' segments run concurrently on the host via the pool's segment
// drivers (inline, in admission order, on a single-threaded host). Segments
// share no simulated state — disjoint core subsets, each stored query with
// its own tier views — and the locked barrier publishes clocks, completes
// finished queries, and splices staged optimizer traces in admission order,
// so every simulated observable is a pure function of the submission trace.
// It reports whether the round retired a query: finished it, or failed its
// admission.
func (s *Server) driveRound() (retired bool, err error) {
	retired = s.admitLocked()
	if len(s.active) == 0 {
		return retired, fmt.Errorf("service: scheduler round with no admissible work")
	}
	if s.membershipChanged || len(s.active) > len(s.clock) {
		s.partitionLocked()
	}
	s.sched, s.fns = s.sched[:0], s.fns[:0]
	for _, q := range s.active {
		if len(q.cores) == 0 {
			continue
		}
		s.segmentBeginLocked(q)
		s.sched = append(s.sched, q)
		s.fns = append(s.fns, q.fn)
	}
	s.mu.Unlock()
	relocked := false
	defer func() {
		if !relocked {
			s.mu.Lock()
		}
	}()
	s.pool.RunSegments(s.fns)
	s.mu.Lock()
	relocked = true
	if err := s.barrierLocked(); err != nil {
		return retired, err
	}
	kept := s.active[:0]
	for _, q := range s.active {
		if q.state == stateDone {
			s.membershipChanged = true
			retired = true
			continue
		}
		kept = append(kept, q)
	}
	s.active = kept
	s.rounds++
	return retired, nil
}

// admitLocked moves queued queries into the active set up to MaxActive,
// honoring simulated arrival times: a query is admitted only once the
// pool's clock frontier has reached its arrival — activating it earlier
// would reserve (and fast-forward) cores for work that has not arrived,
// inflating the latency of queries that have. An idle pool jumps straight
// to the next arrival. It reports whether a query failed to prepare, which
// retires it.
func (s *Server) admitLocked() (failed bool) {
	// The frontier is the earliest time any core can take new work; while
	// queries are active every core is in some subset, so it advances each
	// round.
	now := slices.Min(s.clock)
	if len(s.active) == 0 && len(s.queue) > 0 && s.queue[0].arrival > now {
		now = s.queue[0].arrival
	}
	for len(s.queue) > 0 && len(s.active) < s.cfg.MaxActive {
		head := s.queue[0]
		if head.arrival > now {
			break
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
		s.membershipChanged = true
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
// stored query's tier views, hand it a recycled driver, begin the query on it
// (an adaptive one writes its optimizer trace into a private stage the round
// barrier splices), and warm-start it from the feedback cache — admission, not
// submission, is when the latest completed run of the same fingerprint is
// visible, exactly like a real server racing recurring queries.
func (s *Server) prepareLocked(q *query) error {
	req := &q.req
	spec := req.Spec
	if req.Storage != nil {
		views, err := req.Storage.NewViews(s.pool.Workers())
		if err != nil {
			return err
		}
		q.views, spec.Storage = views, views
	}
	if spec.Mode != core.ModeFixed && spec.Opt.Trace != nil {
		q.optReal = spec.Opt.Trace
		q.optStage = trace.NewStage()
		spec.Opt.Trace = q.optStage
	}
	var sc *segScratch
	if n := len(s.scratchFree); n > 0 {
		sc = s.scratchFree[n-1]
		s.scratchFree[n-1] = nil
		s.scratchFree = s.scratchFree[:n-1]
	} else {
		sc = &segScratch{run: core.NewRun(s.pool)}
	}
	if err := sc.run.Begin(spec); err != nil {
		s.scratchFree = append(s.scratchFree, sc)
		return err
	}
	if step := sc.run.Stepper(); step != nil && !req.Fingerprint.Zero() {
		if v, ok := s.feedback.Get(req.Fingerprint); ok {
			fb := v.(Feedback)
			if step.WarmStart(fb.Order, fb.Impl, fb.Rejected) == nil {
				q.warm, q.warmImpl = fb.Order, fb.Impl
				s.stats.FeedbackWarmStarts++
			}
		}
	}
	q.sc = sc
	q.fn = func() { s.segmentRun(q) }
	return nil
}

// partitionLocked splits the pool's cores across the active queries: every
// query gets floor(W/Q) cores and the first W mod Q (in admission order) one
// extra; when queries outnumber cores, a rotating window of W queries gets
// one core each so no query starves. Subsets are contiguous, ascending, and
// stable while the active set is unchanged — a lone query therefore keeps
// all cores for its whole run.
func (s *Server) partitionLocked() {
	W := len(s.clock)
	Q := len(s.active)
	for _, q := range s.active {
		q.cores = q.cores[:0]
	}
	s.membershipChanged = false
	if Q == 0 {
		return
	}
	base := W / Q
	if base == 0 {
		off := int(s.rounds % uint64(Q))
		for i := 0; i < W; i++ {
			q := s.active[(off+i)%Q]
			q.cores = append(q.cores, i)
		}
		return
	}
	extra := W % Q
	w := 0
	for qi, q := range s.active {
		k := base
		if qi < extra {
			k++
		}
		for j := 0; j < k; j++ {
			q.cores = append(q.cores, w)
			w++
		}
	}
}

// segmentBeginLocked is the locked prologue of one query's segment: resolve
// cold context switches, clamp the subset's clocks to the arrival, and
// snapshot the subset's entry clocks into the query's scratch. Everything the
// unlocked execution phase touches afterwards is owned by this query alone.
func (s *Server) segmentBeginLocked(q *query) {
	// Cold context switch: a core picking up a different query than it last
	// ran flushes its caches and resets its predictor (per-query JIT'd scan
	// loops share no code or hot data), and a core can never run a query
	// before it arrived.
	engines := s.pool.Engines()
	for _, w := range q.cores {
		if s.owner[w] != q {
			engines[w].CPU().Cold()
			s.owner[w] = q
		}
		if s.clock[w] < q.arrival {
			s.clock[w] = q.arrival
		}
	}
	sc := q.sc
	if cap(sc.clocks) < len(q.cores) {
		sc.clocks = make([]uint64, len(q.cores))
	}
	sc.clocks = sc.clocks[:len(q.cores)]
	for i, w := range q.cores {
		sc.clocks[i] = s.clock[w]
	}
	q.segErr = nil
	q.segPanic, q.segPanicked = nil, false
}

// segmentRun executes one query's segment without the server lock: one step
// of its driver on the subset the partitioner gave it. It touches only the
// query's own cores, scratch, and staged trace. Failures are parked on the
// query for the barrier, so every scheduled segment runs to its own completion
// or failure and the barrier surfaces the first one in admission order —
// deterministically, regardless of host interleaving.
func (s *Server) segmentRun(q *query) {
	defer func() {
		if r := recover(); r != nil {
			q.segPanic, q.segPanicked = r, true
		}
	}()
	q.finished, q.segErr = q.sc.run.Step(q.cores, q.sc.clocks)
}

// barrierLocked retires the round: in admission order, surface failures,
// publish each segment's end clocks into the shared frontier, complete
// finished queries (stats, feedback, service-track span), and splice each
// query's staged optimizer events into the real track — the same per-track
// append order a round run inline in admission order produces.
func (s *Server) barrierLocked() error {
	for _, q := range s.sched {
		if q.segPanicked {
			// Re-raises a segment's panic, raised on any host thread, first in admission order.
			panic(q.segPanic)
		}
		if q.segErr != nil {
			return q.segErr
		}
		for i, w := range q.cores {
			s.clock[w] = q.sc.clocks[i]
		}
		if q.finished {
			q.finished = false
			s.finishLocked(q)
		}
		if q.optStage != nil {
			q.optReal.Splice(q.optStage)
		}
	}
	return nil
}

// finishLocked completes a query: stamp times, snapshot optimizer stats,
// record its latency and a stored query's residency, deposit the converged
// order and the rejected ones in the feedback cache, and recycle the segment
// scratch. Barriers complete queries in a fixed order, but not always in
// order of Done, so the residency follows the latest Done.
func (s *Server) finishLocked(q *query) {
	run := q.sc.run
	// Every core of the last subset is free once the slowest is.
	done := slices.Max(q.sc.clocks)
	q.state = stateDone
	q.out = Outcome{
		Result: run.Result, Groups: run.Groups, Sorted: run.Sorted, Stats: run.Stats(),
		Arrival: q.arrival, Start: run.Start, Done: done,
		WarmStarted: q.warm != nil,
		Storage:     q.views,
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
	s.scratchFree = append(s.scratchFree, q.sc)
	q.sc = nil
	s.stats.Completed++
	s.stats.LatencyCycles = append(s.stats.LatencyCycles, done-q.arrival)
	if q.views != nil && (done > s.resDone || done == s.resDone && q.seq > s.resSeq) {
		s.resDone, s.resSeq = done, q.seq
		s.stats.ResidentBytes = 0
		for _, v := range q.views {
			s.stats.ResidentBytes += v.Set.ResidentBytes()
		}
	}
	if s.tr != nil {
		s.tr.Span("query", run.Start, done,
			trace.Int("seq", q.seq), trace.Uint64("latency", done-q.arrival),
			trace.Uint64("queue_wait", run.Start-q.arrival), trace.Int64("qual", run.Qualifying))
	}
}
