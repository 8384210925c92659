package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Parallel executes queries with morsel-driven parallelism (Leis et al.,
// "Morsel-driven parallelism", SIGMOD 2014) across N simulated cores. The
// driving table is split into morsels of one vector each and the scheduler
// dispenses the next morsel to whichever core is idle first in *simulated*
// time (the core with the smallest cycle clock) — a discrete-event
// simulation of the work-stealing queue, so cores that drew expensive
// morsels automatically receive fewer of them, exactly the self-balancing
// property morsel-driven execution is built for.
//
// All cores share one synthetic physical address space, which core 0
// assigns (Alloc, BindQuery), but simulate private cache hierarchies, branch
// predictors, and PMUs — the private-L1/L2 topology of the paper's
// evaluation machine. Scheduling decisions depend only on
// simulated clocks, so everything is deterministic: Qualifying and Sum are
// bit-identical to a serial run (the aggregate is reduced in global vector
// order), and cycle counts and PMU samples reproduce exactly across runs,
// host machines, and GOMAXPROCS settings.
//
// On multi-core hosts the simulated cores really do run in parallel. Every
// block is one loop (BlockRun.work) run by the calling goroutine and by
// however many pooled helpers are free: take the scheduler lock, pick the
// idle-first core, certify the pick against the clocks the running cores
// have published (lookahead.go), run the morsel, hand the core back. There
// are no barriers inside a block. Each morsel touches only its own simulated
// core, its result waits in a ring until every lower-numbered morsel has
// been reduced, and the assignment sequence is provably the serial one — so
// the host schedule cannot influence any simulated observable.
type Parallel struct {
	workers    []*Engine
	vectorSize int
	// blockClocks are the reusable entry clocks of the whole-pool entry point
	// (Run), which always has a single caller.
	blockClocks []uint64
	// run is the block-run context of that whole-pool entry point. The
	// query driver (core.Run) brings its own, made with NewBlockRun, so the
	// workload service's admitted queries never share one.
	run BlockRun
	// pool holds the persistent helper goroutines, started lazily by the
	// first block that can use one on a GOMAXPROCS > 1
	// host and reused until Close. Guarded by poolMu for concurrent
	// starters; readers load the atomic pointer.
	poolMu sync.Mutex
	pool   atomic.Pointer[hostPool]
}

// BlockRun is the block execution context of one query at a time: the
// lookahead scheduler state, the ring of per-morsel results, the reduction
// targets, and reusable scratch (PMU sample snapshots, the per-call
// busy-cycle counters). The simulation state lives in the Parallel's engines;
// a query that is cut into steps keeps its BlockRun between them (a grouped
// query's accumulator is part of it), so several queries can be in progress
// on one Parallel, each with its own. Everything a block needs lives here and
// is reused, so a steady-state block allocates nothing.
type BlockRun struct {
	p             *Parallel
	sampleScratch []pmu.Sample
	// busyScratch backs BlockResult.WorkerCycles, which therefore stays
	// valid only until the next call on the same BlockRun.
	busyScratch []uint64

	// The block in progress; its window's morsels run winImpl.
	q             *Query
	impl, winImpl ScanImpl
	// skip is the zone-map verdict per vector (see StorageScan), shared by
	// the run's cores; core 0 carries it like every other.
	skip       []bool
	issueWidth int

	// shared says helpers were invited to the block: running cores then
	// publish their clocks. In a block the driver runs alone nothing does.
	shared bool
	// lone says the block runs on one core that no trace records: its
	// morsels read the core's clock without settling it (clock), and settled
	// is the last such reading.
	lone    bool
	settled uint64
	job     hostJob
	mu      sync.Mutex // guards sched, the ring handoff, merging, busyScratch
	sched   lookahead
	// ring buffers the results of morsels [sched.merged, sched.next), slot
	// v % len(ring). merging marks the one worker reducing a slot outside
	// the lock; slots are reduced in ascending morsel order.
	ring    []morsel
	merging bool

	// Reduction targets.
	out BlockResult
	sum *float64
	// groups, set by BeginGroups for all of a grouped query's blocks, are the
	// pool's partial tables (morsels run GroupVector instead of RunVectorImpl)
	// and groupAcc, which those blocks reduce into, the query's accumulator: the
	// merged group rows and, per key, which pool cores' partial tables hold it.
	groups   []*GroupBy
	groupAcc groupTable
	// barrier is the merge barrier in progress (FinalizeGroups): while on,
	// the job's workers claim owners — the cores — by index instead of
	// morsels, and split refs, the key-ordered slots, among them.
	barrier struct {
		on   bool
		refs []groupRef
		next atomic.Int64
	}
	// failed is the lowest-numbered failed morsel, once the reduction has
	// reached it (its ring slot is not reused: a failure stops assignment).
	failed *morsel

	// win is the window of a RunWindow block, summed as its morsels complete
	// (WorkerCycles is winScratch), and decider takes its decision.
	win        Window
	winScratch []uint64
	decider    Decider
	// decideErr is the decision's error or, in decidePanic, its panic.
	decideErr   error
	decidePanic any
}

// morsel is one (core, vector) assignment and, once run, its result.
type morsel struct {
	core   int    // pool core id
	v      int    // morsel (vector) index
	lo, hi int    // row range
	entry  uint64 // block-absolute clock the core starts the morsel at

	res VectorResult
	// pmu is a window morsel's PMU sample at its start, then its delta.
	pmu pmu.Sample
	// sel is a copy of GroupVector's survivors: the engine's own buffer is
	// overwritten by the core's next morsel, which may start before this one
	// is reduced.
	sel    []int32
	cycles uint64
	err    error
	pv     any // captured panic value, nil if the morsel did not panic
}

// NewBlockRun returns a fresh block-run context.
func (p *Parallel) NewBlockRun() *BlockRun { return &BlockRun{p: p} }

// NewParallel builds a parallel executor with the given number of worker
// cores, each a fresh CPU of the given profile.
func NewParallel(prof cpu.Profile, workers, vectorSize int) (*Parallel, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("exec: non-positive worker count %d", workers)
	}
	if vectorSize <= 0 {
		return nil, fmt.Errorf("exec: non-positive vector size %d", vectorSize)
	}
	ws := make([]*Engine, workers)
	for i := range ws {
		c, err := cpu.New(prof)
		if err != nil {
			return nil, err
		}
		e, err := NewEngine(c, vectorSize)
		if err != nil {
			return nil, err
		}
		ws[i] = e
	}
	p := &Parallel{workers: ws, vectorSize: vectorSize}
	p.run.p = p
	return p, nil
}

// Workers returns the number of simulated cores.
func (p *Parallel) Workers() int { return len(p.workers) }

// Engines exposes the per-core engines (shared slice; do not mutate).
func (p *Parallel) Engines() []*Engine { return p.workers }

// VectorSize returns tuples per vector (= per morsel).
func (p *Parallel) VectorSize() int { return p.vectorSize }

// SetScalar switches every worker between batch-kernel and tuple-at-a-time
// execution.
func (p *Parallel) SetScalar(scalar bool) {
	for _, w := range p.workers {
		w.SetScalar(scalar)
	}
}

// SetFuse toggles the fused batch kernels on every worker (see
// Engine.SetFuse). Both settings are bit-identical; the unfused path is the
// equivalence oracle.
func (p *Parallel) SetFuse(enable bool) {
	for _, w := range p.workers {
		w.SetFuse(enable)
	}
}

// SetTrace attaches one event track per simulated core (tracks[i] goes to
// core i; nil detaches all). Core i's track is written only by the host
// goroutine currently running a morsel on core i — vector spans while it
// runs, the morsel span right after — and a core changes hands only through
// the scheduler lock, so every track has a single writer at any instant and
// its append order is the core's own morsel order in the serial schedule:
// traces reproduce byte-for-byte at any GOMAXPROCS.
func (p *Parallel) SetTrace(tracks []*trace.Track) {
	for i, w := range p.workers {
		if tracks == nil || i >= len(tracks) {
			w.SetTrace(nil)
		} else {
			w.SetTrace(tracks[i])
		}
	}
}

// Close stops the persistent helper goroutines, if any were started. The
// Parallel remains usable afterwards (a later block simply starts a fresh
// pool); Close exists so long-lived processes that retire an executor on a
// multi-core host do not leak its goroutines. On single-threaded hosts no
// pool is ever started and Close is a no-op.
func (p *Parallel) Close() {
	for _, w := range p.workers {
		w.cpu.Hierarchy().Unstage()
	}
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	if hp := p.pool.Swap(nil); hp != nil {
		close(hp.jobs)
	}
}

// Cold returns every core to its constructed state (cpu.CPU.Cold).
func (p *Parallel) Cold() {
	for _, w := range p.workers {
		w.CPU().Cold()
	}
}

// NumVectors returns how many vectors (morsels) cover the query's table.
func (p *Parallel) NumVectors(q *Query) int {
	return (q.Table.NumRows() + p.vectorSize - 1) / p.vectorSize
}

// Alloc reserves size bytes of the pool's address space through core 0
// (cpu.CPU.Alloc), making the pool a columnar.Allocator.
func (p *Parallel) Alloc(size int) (uint64, error) { return p.workers[0].CPU().Alloc(size) }

// BindQuery binds the query's still-unbound columns through core 0 and starts
// all cores cold.
func (p *Parallel) BindQuery(q *Query) error {
	if err := p.workers[0].BindQuery(q); err != nil {
		return err
	}
	p.Cold()
	return nil
}

// hostJob is work that its driver runs together with whichever pooled
// helpers are free: a block's morsel loop or a merge barrier's owners.
// Helpers join while the job is open and the driver waits for the last of
// them to leave.
type hostJob struct {
	// work takes items off the job until none are left; the driver and every
	// helper call it concurrently.
	work func()

	mu      sync.Mutex
	open    bool
	helpers int
}

// hostPool holds the persistent helper goroutines. Helpers are not tied to
// simulated cores or to drivers: each takes the next invitation from jobs
// and works alongside whoever posted it until that job runs dry.
type hostPool struct {
	// jobs is buffered one invitation per helper: with every helper busy, a
	// longer queue would only hold invitations to jobs that have since ended.
	jobs chan helperTask
}

// helperTask is what a pooled helper can be invited to: a hostJob, or a
// staged core's levels below L1 (Engine.help).
type helperTask interface{ help() }

// helperLinger is how long a helper that has finished a job keeps polling
// for the next invitation before it parks. A served query's rounds and an
// adaptive query's blocks follow each other within tens of microseconds,
// while waking a parked helper takes about 100 µs on a 2-vCPU virtual
// machine; a helper still polling joins the next job at once.
const helperLinger = 100 * time.Microsecond

// serve is a helper's loop: it works on every job it is invited to, and
// parks only after lingering without an invitation.
func (hp *hostPool) serve() {
	for j := range hp.jobs {
		for ; j != nil; j = hp.linger() {
			j.help()
		}
	}
}

// linger polls for an invitation for up to helperLinger, yielding the
// processor between polls. It returns nil when none came or the pool closed.
func (hp *hostPool) linger() helperTask {
	for start := time.Now(); time.Since(start) < helperLinger; runtime.Gosched() {
		select {
		case j := <-hp.jobs:
			return j
		default:
		}
	}
	return nil
}

// startPool returns the helper pool, starting it on first use with one
// helper fewer than the host threads the simulated cores can occupy — the
// driver is a worker too — plus one per core when the cores are staged.
func (p *Parallel) startPool() *hostPool {
	if hp := p.pool.Load(); hp != nil {
		return hp
	}
	p.poolMu.Lock()
	defer p.poolMu.Unlock()
	hp := p.pool.Load()
	if hp == nil {
		size := min(runtime.GOMAXPROCS(0), len(p.workers)) - 1
		if p.staging() {
			size += len(p.workers)
		}
		hp = &hostPool{jobs: make(chan helperTask, size)}
		for range size {
			go hp.serve()
		}
		p.pool.Store(hp)
	}
	return hp
}

// runJob runs j.work on the caller and on up to n invited helpers, and
// returns once all of them are out of it. An invitation is not a rendezvous:
// a helper busy elsewhere takes it when it comes free and joins late, or
// finds the job over; the driver never waits for one to show up.
func (p *Parallel) runJob(j *hostJob, n int) {
	hp := p.startPool()
	j.mu.Lock()
	j.open = true
	j.mu.Unlock()
invite:
	for ; n > 0; n-- {
		select {
		case hp.jobs <- j:
		default:
			break invite
		}
	}
	j.work()
	// The job's work is exhausted, so a helper still inside is finishing its
	// last item.
	var w waiter
	j.mu.Lock()
	j.open = false
	for j.helpers > 0 {
		j.mu.Unlock()
		w.pause()
		j.mu.Lock()
	}
	j.mu.Unlock()
}

// help is a pooled helper's side of runJob; it returns at once when the job
// is already over.
func (j *hostJob) help() {
	j.mu.Lock()
	open := j.open
	if open {
		j.helpers++
	}
	j.mu.Unlock()
	if !open {
		return
	}
	j.work()
	j.mu.Lock()
	j.helpers--
	j.mu.Unlock()
}

// BlockResult reports one morsel block execution.
type BlockResult struct {
	// Qualifying is the block's qualifying tuple count; its aggregate goes to
	// the caller's sum (see RunBlock).
	Qualifying int64
	// Vectors is the number of morsels executed.
	Vectors int
	// MaxCycles is the block makespan: the largest per-core cycle delta.
	MaxCycles uint64
	// WorkerCycles are the per-core cycle deltas.
	WorkerCycles []uint64
	// Counters is the PMU delta summed across cores — the aggregate a
	// multi-core deployment reads by sampling every core's PMU.
	Counters pmu.Sample
}

// zeroClocks returns the reusable entry clocks of the whole pool, zeroed.
func (p *Parallel) zeroClocks() []uint64 {
	if p.blockClocks == nil {
		p.blockClocks = make([]uint64, len(p.workers))
	}
	clear(p.blockClocks)
	return p.blockClocks
}

// minVectorCycles returns a guaranteed lower bound on the simulated cycles
// any engine spends on an n-row vector: every execution mode of every driver
// (batch, fused, scalar, branch-free, instrumented, and GroupVector)
// unconditionally retires the per-row loop bookkeeping (loopOverheadInstr = 2
// instructions) and the always-taken back-edge branch (2 instructions: cmp +
// jcc), so at least 4n instructions issue, and load latencies, operator work,
// counter increments and stalls only add. The bound is evaluated with the exact integer arithmetic of
// CPU.Cycles (issue quarters, floored), which never exceeds the cycle delta
// the extra instructions alone produce.
func minVectorCycles(n, issueWidth int) uint64 {
	return uint64(4*n) * 4 / uint64(issueWidth) / 4
}

// lookaheadWindow is how many morsels per core may be assigned but
// not yet reduced: enough that a core drawing a long morsel does not stall
// the others, small enough that the result ring stays cache-resident.
const lookaheadWindow = 4

// runBlock executes morsels [vecLo, vecHi) on the pool, those below winHi as
// the block's window, and reduces them, in ascending morsel order, into the
// BlockRun's targets. It returns the error
// of the lowest-numbered failed morsel — re-raising it if it was a panic —
// after every running morsel has drained, exactly the failure the serial
// scheduler would have stopped at.
func (r *BlockRun) runBlock(q *Query, vecLo, winHi, vecHi int, clocks []uint64, impl ScanImpl) error {
	p := r.p
	r.q, r.impl = q, impl
	r.issueWidth = p.workers[0].CPU().Profile().IssueWidth
	r.skip = nil
	if st := p.workers[0].stor; st != nil {
		r.skip = st.Skip
	}
	window := lookaheadWindow * len(p.workers)
	if len(r.ring) < window {
		r.ring = make([]morsel, window)
	}
	r.sched.reset(clocks, vecLo, vecHi, window)
	r.sched.openWindow(winHi - vecLo)
	r.out, r.failed = BlockResult{}, nil
	if vecHi > vecLo {
		p.stage()
	}
	// Helpers are worth inviting only when two morsels can overlap and the
	// host has a second thread to run one on.
	width := min(runtime.GOMAXPROCS(0), len(p.workers), vecHi-vecLo)
	if r.shared = width > 1; r.shared {
		if r.job.work == nil {
			r.job.work = r.work
		}
		p.runJob(&r.job, width-1)
	} else if r.lone = len(p.workers) == 1 && p.workers[0].tr == nil; r.lone {
		c := p.workers[0].CPU()
		r.settled = c.Cycles()
		r.work()
		// The stall the morsels' readings left out lands on the block's last
		// morsel, where every later reading sees it.
		d := c.Cycles() - r.settled
		clocks[0] += d
		r.busyScratch[0] += d
		r.lone = false
	} else {
		r.work()
	}
	r.q = nil
	if r.failed == nil {
		return nil
	}
	if r.failed.pv != nil {
		// Re-raises the lowest failed morsel's panic, raised on any host thread.
		panic(r.failed.pv)
	}
	return r.failed.err
}

// staging reports whether blocks stage their cores: whether the host can
// give every simulated core of the pool a second thread, for the levels
// below L1 (cache.Hierarchy.Stage).
func (p *Parallel) staging() bool { return 2*len(p.workers) <= runtime.GOMAXPROCS(0) }

// stage decides, for a block, whether its cores are staged: if so, it stages
// them and invites a pooled helper to each core no helper serves yet, and
// otherwise it returns them to inline simulation. A stage outlives the
// block, so the steps of a stepped query keep their helper; the helper
// leaves once its core has had no work for a while
// (cache.Hierarchy.ServeStage). An invitation is not a rendezvous: until a
// helper joins, a core simulates its lower levels itself whenever it has to
// wait for them. A core with a storage tier stays inline (its tier's
// observer reads the core's clock from inside the lower levels).
func (p *Parallel) stage() {
	if !p.staging() {
		for _, e := range p.workers {
			e.cpu.Hierarchy().Unstage()
		}
		return
	}
	hp := p.startPool()
	for _, e := range p.workers {
		if e.cpu.Hierarchy().Stage() {
			select {
			case hp.jobs <- e:
			default:
			}
		}
	}
}

// help is a pooled helper's side of a staged core: it simulates the core's
// levels below L1 until the core is unstaged or has no work for a while.
func (e *Engine) help() { e.cpu.Hierarchy().ServeStage() }

// work is the loop every host worker of a block runs — the driver always,
// helpers while they have nothing else to do: take a certified morsel, run
// it on its simulated core, hand the core back. At a merge barrier it runs
// owners' merges instead.
func (r *BlockRun) work() {
	if r.barrier.on {
		r.mergeOwners()
		return
	}
	for m := r.acquire(); m != nil; m = r.acquire() {
		r.execute(m)
		r.complete(m)
	}
}

// acquire returns the next morsel once its core choice is certified, or nil
// when the block has none left to hand out.
func (r *BlockRun) acquire() *morsel {
	s := &r.sched
	for {
		r.mu.Lock()
		if s.finished() {
			r.mu.Unlock()
			return nil
		}
		v := s.next
		lo := v * r.p.vectorSize
		hi := min(lo+r.p.vectorSize, r.q.Table.NumRows())
		// A zone-map-skipped vector answers from metadata in zero simulated
		// cycles, so nothing can be certified past it until it completes —
		// which it does at once, clock unchanged.
		var minDur uint64
		if v >= len(r.skip) || !r.skip[v] {
			minDur = minVectorCycles(hi-lo, r.issueWidth)
		}
		w, blocker, at := s.assign(minDur)
		if w >= 0 {
			m := &r.ring[v%len(s.done)]
			*m = morsel{core: w, v: v, lo: lo, hi: hi, entry: at, sel: m.sel[:0]}
			r.mu.Unlock()
			return m
		}
		if s.finished() {
			// The pick was the next step's.
			r.mu.Unlock()
			return nil
		}
		gen := s.gen.Load()
		r.mu.Unlock()
		s.await(blocker, at, gen)
	}
}

// execute runs the morsel on its simulated core. While helpers share the
// block, the core publishes its block-absolute clock as it goes.
func (r *BlockRun) execute(m *morsel) {
	eng := r.p.workers[m.core]
	c := eng.CPU()
	c0 := r.clock(c)
	if r.shared {
		c.SetProgress(&r.sched.cells[m.core].clock, m.entry-c0)
	}
	defer r.finish(m, eng, c0)
	impl := r.impl
	if m.v < r.sched.winHi {
		impl, m.pmu = r.winImpl, c.Sample()
	}
	if r.groups != nil {
		var sel []int32
		sel, m.err = eng.GroupVector(r.q, r.groups[m.core], m.lo, m.hi)
		m.sel = append(m.sel, sel...)
	} else {
		m.res, m.err = eng.RunVectorImpl(r.q, m.lo, m.hi, impl)
	}
}

// clock reads a morsel's core's clock at the morsel's start or end. A lone
// core's block reads it without settling the stall of loads its staged lower
// levels have yet to simulate (cpu.CPU.SettledCycles): the core's morsel
// durations then still add up to the block's, once runBlock settles the
// remainder, and nothing else reads them — a block on one core has nothing
// to schedule, and no trace stamps its spans. So the core's second thread
// keeps working from one morsel into the next instead of draining at each.
func (r *BlockRun) clock(c *cpu.CPU) uint64 {
	if r.lone {
		r.settled = c.SettledCycles()
		return r.settled
	}
	return c.Cycles()
}

// finish closes a morsel's execution: it captures a panic (e.g. an
// out-of-range foreign key) for the reduction to re-raise in morsel order,
// detaches the progress cell, and emits the morsel span while this worker
// still owns the core's track.
func (r *BlockRun) finish(m *morsel, eng *Engine, c0 uint64) {
	m.pv = recover()
	c := eng.CPU()
	c.SetProgress(nil, 0)
	end := r.clock(c)
	m.cycles = end - c0
	if m.v < r.sched.winHi {
		m.pmu = c.Sample().Sub(m.pmu)
	}
	if tr := eng.tr; tr != nil && m.err == nil && m.pv == nil {
		if r.groups != nil {
			tr.Span("morsel", c0, end, trace.Int("v", m.v), trace.Int("rows", m.hi-m.lo), trace.Bool("grouped", true))
		} else {
			tr.Span("morsel", c0, end, trace.Int("v", m.v), trace.Int("rows", m.hi-m.lo))
		}
	}
}

// complete hands the morsel's core back to the scheduler and reduces every
// result that is now next in morsel order. The reduction runs outside the
// lock — a grouped morsel folds a thousand survivors into a hash table — with
// merging keeping it to one worker at a time.
func (r *BlockRun) complete(m *morsel) {
	s := &r.sched
	r.mu.Lock()
	decide := s.complete(m.core, m.v, m.entry+m.cycles, m.err != nil || m.pv != nil)
	r.busyScratch[m.core] += m.cycles
	if m.v < s.winHi {
		w := &r.win
		w.Qualifying += m.res.Qualifying
		w.Vectors++
		w.WorkerCycles[m.core] += m.cycles
		w.Counters = w.Counters.Add(m.pmu)
	}
	if decide {
		// No core is picked until the decision is published.
		r.mu.Unlock()
		r.decide()
		r.mu.Lock()
	}
	for !r.merging && s.mergeable() {
		next := &r.ring[s.merged%len(s.done)]
		r.merging = true
		r.mu.Unlock()
		ok := r.merge(next)
		r.mu.Lock()
		r.merging = false
		s.advance(ok)
	}
	r.mu.Unlock()
}

// merge reduces one morsel into the block's targets, or records its failure.
func (r *BlockRun) merge(m *morsel) bool {
	if m.err != nil || m.pv != nil {
		r.failed = m
		return false
	}
	r.out.Vectors++
	if r.groups == nil {
		// The aggregate accumulates in global vector order for a
		// serial-identical float bit pattern.
		r.out.Qualifying += m.res.Qualifying
		*r.sum += m.res.Sum
		return true
	}
	// Per-key accumulation order is the global row order — identical float
	// association to a serial run for every worker count.
	r.groups[m.core].fold(&r.groupAcc, m.sel, m.core)
	r.out.Qualifying += int64(len(m.sel))
	return true
}

// RunBlock executes vectors [vecLo, vecHi) of the query morsel-driven on
// the pool's cores, all inside the scan implementation impl — the block
// primitive of the query driver's step (core.Run.Step) and, from zero clocks,
// of Run. clocks[w] is the absolute simulated time core w is next free,
// continued from the caller's discrete-event state and updated in place. Each
// vector is one morsel and goes to the core whose clock is smallest (ties to
// the lowest id), so a core that enters the block behind the others naturally
// backfills first.
//
// Morsels overlap on the host wherever the lookahead rule can certify the
// next core choice early (see lookahead.go); results reduce in ascending
// morsel order, so every simulated observable — results, cycle clocks, PMU
// counters, float bit patterns — is identical to the serial scheduler's for
// every Workers and GOMAXPROCS combination.
//
// The returned BlockResult reports WorkerCycles[w] as the busy cycles core w
// consumed in this call, MaxCycles as the block makespan measured from the
// earliest entry clock, and Counters as the cores' merged PMU deltas.
//
// sum is required: it receives the per-vector aggregate contributions in
// global vector order. The driver, which splits one scan into many steps,
// accumulates into the same float across all of them, preserving the exact
// addition order (and therefore the bit pattern) of an unsplit run; Run
// reduces into its Result.Sum the same way. After BeginGroups the morsels are
// a grouped aggregation's: their survivors fold into the BlockRun's
// accumulator, Qualifying counts them, and no sum is written.
func (r *BlockRun) RunBlock(q *Query, vecLo, vecHi int, clocks []uint64, impl ScanImpl, sum *float64) (BlockResult, error) {
	return r.runWindow(q, vecLo, vecLo, vecHi, clocks, impl, impl, sum, nil)
}

// Window is the decision window of an adaptive step (RunWindow), as the
// block hands it to the Decider once the last of its morsels has completed.
type Window struct {
	// BlockResult is the window's own: its qualifying tuples and vectors,
	// WorkerCycles[w] the cycles core w spent on its morsels, and Counters
	// the sum of the morsels' PMU deltas. MaxCycles is left zero.
	BlockResult
	// End is the time the window's last morsel completed, on core Core (ties
	// to the lowest id), where the decision runs.
	End  uint64
	Core int
}

// Decider takes an adaptive step's decision on its window (RunWindow). It
// runs once per block, on whichever host thread completed the window, and
// may touch no simulated core but w.Core, whose cycles it is charged.
type Decider interface {
	Decide(w *Window) error
}

// RunWindow is the block of an adaptive step. Morsels [vecLo, winHi) are its
// window: they run the scan winImpl, and when the last of them completes, at
// w.End, d.Decide takes the step's decision on core w.Core, which is busy
// with it until T_d = w.End plus the cycles it charged. Meanwhile and after,
// the other cores take morsels from winHi on, in impl, while their clock is
// below T_d; the first pick at or after T_d is the next step's, and the block
// ends there, at most at vecHi. Every morsel runs q: the order the decision
// sets is the next step's. The rule depends on simulated clocks only (see
// lookahead.go), so the block, its window and T_d are the serial
// scheduler's at every GOMAXPROCS.
//
// The BlockResult reports the whole block as RunBlock does — Vectors is how
// many morsels it ran, Counters and WorkerCycles include the decision — and
// clocks leave as the cores do, core w.Core's at T_d or later.
func (r *BlockRun) RunWindow(q *Query, vecLo, winHi, vecHi int, clocks []uint64, winImpl, impl ScanImpl, sum *float64, d Decider) (BlockResult, error) {
	if winHi <= vecLo || winHi > vecHi || d == nil {
		return BlockResult{}, fmt.Errorf("exec: window [%d,%d) of block [%d,%d): empty, past the block, or no decider", vecLo, winHi, vecLo, vecHi)
	}
	return r.runWindow(q, vecLo, winHi, vecHi, clocks, winImpl, impl, sum, d)
}

// decide takes the window's decision on its core and publishes T_d; an error
// or a panic stops the block like a failed morsel.
func (r *BlockRun) decide() {
	s := &r.sched
	w := &r.win
	w.End, w.Core = s.winEnd, s.winPos
	c := r.p.workers[w.Core].CPU()
	c0 := c.Cycles()
	defer func() {
		pv := recover()
		d := c.Cycles() - c0
		r.mu.Lock()
		if pv != nil || r.decideErr != nil {
			r.decidePanic, s.stopped = pv, true
		}
		r.busyScratch[w.Core] += d
		s.decide(w.End + d)
		r.mu.Unlock()
	}()
	r.decideErr = r.decider.Decide(w)
}

func (r *BlockRun) runWindow(q *Query, vecLo, winHi, vecHi int, clocks []uint64, winImpl, impl ScanImpl, sum *float64, d Decider) (BlockResult, error) {
	p := r.p
	if err := q.Validate(); err != nil {
		return BlockResult{}, err
	}
	if len(clocks) != len(p.workers) {
		return BlockResult{}, fmt.Errorf("exec: %d clocks for %d cores", len(clocks), len(p.workers))
	}
	if numVec := p.NumVectors(q); vecLo < 0 || vecHi > numVec || vecLo > vecHi {
		return BlockResult{}, fmt.Errorf("exec: block [%d,%d) outside %d vectors", vecLo, vecHi, numVec)
	}
	entryMin := clocks[0]
	for _, cl := range clocks[1:] {
		entryMin = min(entryMin, cl)
	}
	startSamples := r.begin()
	r.sum, r.winImpl, r.decider = sum, winImpl, d
	if cap(r.winScratch) < len(p.workers) {
		r.winScratch = make([]uint64, len(p.workers))
	}
	r.win = Window{BlockResult: BlockResult{WorkerCycles: r.winScratch[:len(p.workers)]}}
	clear(r.win.WorkerCycles)
	r.decideErr, r.decidePanic = nil, nil
	err := r.runBlock(q, vecLo, winHi, vecHi, clocks, impl)
	r.decider = nil
	if r.decidePanic != nil {
		panic(r.decidePanic)
	}
	if err == nil {
		err = r.decideErr
	}
	if err != nil {
		return BlockResult{}, err
	}
	out := r.out
	out.WorkerCycles = r.busyScratch
	if out.Vectors > 0 {
		for _, cl := range clocks {
			out.MaxCycles = max(out.MaxCycles, cl-entryMin)
		}
	}
	for w, e := range p.workers {
		out.Counters = out.Counters.Add(e.CPU().Sample().Sub(startSamples[w]))
	}
	return out, nil
}

// begin zeroes the per-core busy counters and snapshots the cores' PMUs.
func (r *BlockRun) begin() []pmu.Sample {
	nw := len(r.p.workers)
	if cap(r.busyScratch) < nw {
		r.busyScratch = make([]uint64, nw)
		r.sampleScratch = make([]pmu.Sample, nw)
	}
	r.busyScratch = r.busyScratch[:nw]
	clear(r.busyScratch)
	samples := r.sampleScratch[:nw]
	for w, e := range r.p.workers {
		samples[w] = e.CPU().Sample()
	}
	return samples
}

// BeginGroups makes the blocks that follow those of a grouped aggregation and
// empties its accumulator, so nothing of an earlier query — a failed one
// included — reaches this one; nil makes them plain scans again. gs[w] is pool
// core w's partial hash table: a morsel on core w updates only gs[w] (its
// private table region, so hash-table maintenance hits its own cache
// hierarchy) and its survivors reduce into the accumulator in global vector
// order, so the groups (keys, sums, counts) are bit-identical whatever the
// pool's size, the blocks and GOMAXPROCS.
// The same visit records, in the key's slot, that the morsel's core holds the
// key: the accumulator's one key-ordered slot list then serves the output rows
// and the merge barrier (FinalizeGroups) alike.
func (r *BlockRun) BeginGroups(gs []*GroupBy) error {
	if r.groups = gs; gs == nil {
		return nil
	}
	if nw := len(r.p.workers); len(gs) != nw {
		return fmt.Errorf("exec: %d partial group tables for %d workers", len(gs), nw)
	}
	for w, g := range gs {
		if g == nil {
			return fmt.Errorf("exec: nil partial group table for worker %d", w)
		}
	}
	r.groupAcc.reset(gs[0].domain, len(gs))
	return nil
}

// FinalizeGroups is the merge barrier of a grouped aggregation whose scan is
// complete, and returns its output rows. It is partitioned across the pool's
// cores, as morsel-driven engines merge by partition: the key-ordered slots
// split into one contiguous range of equal key count per core, and owner w
// folds every other core's partial slots of range w into its own table, core
// by ascending id and key by ascending key. A fold is one read of the remote
// slot, one read-modify-write of the owner's own and groupMergeCostInstr of
// arithmetic. The loads are gathered and simulated a chunk at a time —
// LoadAddrs is defined as its per-element Load sequence, and instruction and
// stall totals are sums, so where in a chunk the arithmetic retires changes
// nothing a clock or a counter can show. A pool of one core owns every key:
// the one-core merge.
//
// The BlockResult reports the barrier as RunBlock reports a block:
// WorkerCycles[w] is owner w's merge, MaxCycles the largest — the barrier's
// makespan, since every core waits for the slowest — and Counters the
// owners' merged PMU deltas.
//
// Each owner touches only its own simulated core and emits its group-merge
// span on that core's track, so the owners run as the BlockRun's host job, on
// the caller and whichever pooled helpers are free, and nothing simulated
// depends on which host thread ran which owner.
func (r *BlockRun) FinalizeGroups() ([]Group, BlockResult) {
	start := r.begin()
	b := &r.barrier
	b.refs, b.on = r.groupAcc.sorted(), true
	b.next.Store(0)
	if width := min(runtime.GOMAXPROCS(0), len(r.p.workers)); width > 1 {
		if r.job.work == nil {
			r.job.work = r.work
		}
		r.p.runJob(&r.job, width-1)
	} else {
		r.mergeOwners()
	}
	b.on = false
	out := BlockResult{WorkerCycles: r.busyScratch}
	for w, e := range r.p.workers {
		d := e.CPU().Sample().Sub(start[w])
		out.WorkerCycles[w] = d.Get(pmu.Cycles)
		out.MaxCycles = max(out.MaxCycles, out.WorkerCycles[w])
		out.Counters = out.Counters.Add(d)
	}
	return r.groupAcc.groups(b.refs), out
}

// mergeOwners claims owners by index until none are left and runs each one's
// share of the merge barrier.
func (r *BlockRun) mergeOwners() {
	b := &r.barrier
	n, k := len(b.refs), len(r.p.workers)
	for i := int(b.next.Add(1)) - 1; i < k; i = int(b.next.Add(1)) - 1 {
		r.mergeRange(i, b.refs[i*n/k:(i+1)*n/k])
	}
}

// mergeRange is owner's share of the barrier: it folds every other pool
// core's partial slots of the keys in refs into owner's table.
func (r *BlockRun) mergeRange(owner int, refs []groupRef) {
	acc, gs := &r.groupAcc, r.groups
	eng := r.p.workers[owner]
	c := eng.CPU()
	mergeStart := c.Cycles()
	addrs := c.AddrBuf(2 * groupMergeChunk)
	flush := func() {
		c.LoadAddrs(addrs)
		c.Exec(groupMergeCostInstr * len(addrs) / 2)
		addrs = addrs[:0]
	}
	for w := range gs {
		if w == owner {
			continue
		}
		for _, ref := range refs {
			if !acc.has(ref, w) {
				continue
			}
			addrs = append(addrs, gs[w].slotAddr(ref.key), gs[owner].slotAddr(ref.key))
			if len(addrs) == 2*groupMergeChunk {
				flush()
			}
		}
	}
	flush()
	if tr := eng.tr; tr != nil && c.Cycles() > mergeStart {
		tr.Span("group-merge", mergeStart, c.Cycles(), trace.Int("workers", len(gs)))
	}
}

// Run executes the whole table morsel-driven under the query's fixed
// operator order. Result.Cycles is the makespan (the slowest core's cycle
// count) and Result.Counters the merged per-core PMU deltas.
func (p *Parallel) Run(q *Query) (Result, error) {
	var out Result
	br, err := p.run.RunBlock(q, 0, p.NumVectors(q), p.zeroClocks(), ImplBranching, &out.Sum)
	if err != nil {
		return Result{}, err
	}
	out.Qualifying, out.Vectors = br.Qualifying, br.Vectors
	out.Cycles, out.Counters = br.MaxCycles, br.Counters
	out.Millis = p.workers[0].CPU().MillisOf(out.Cycles)
	return out, nil
}
