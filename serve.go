package progopt

import (
	"fmt"
	"io"
	"sync"

	"progopt/internal/exec"
	"progopt/internal/service"
	"progopt/internal/trace"
)

// ServerConfig configures a workload server.
type ServerConfig struct {
	// MaxActive caps the queries sharing the engine's cores concurrently
	// (default: the engine's worker count). Submissions beyond it queue.
	MaxActive int
	// QueueLimit caps the pending queue; Submit rejects beyond it
	// (0 = unlimited).
	QueueLimit int
	// PlanCacheSize bounds the fingerprint-keyed compiled-plan cache
	// (default 64 plans). A hit skips Compile entirely.
	PlanCacheSize int
	// QuantumVectors is the scheduling quantum of fixed-order queries:
	// morsels per assigned core between scheduling decisions (default 10).
	QuantumVectors int
	// DisableFeedback turns warm starts off (every run starts from the plan
	// order; nothing is stored) — the cold baseline of the ext-serve
	// experiment.
	DisableFeedback bool
}

// ServerStats counts server activity since construction.
type ServerStats struct {
	// Submitted/Admitted/Rejected/Completed count queries through the
	// admission controller; PeakActive and PeakQueued are high-water marks.
	Submitted, Admitted, Rejected, Completed int
	PeakActive, PeakQueued                   int
	// PlanCacheHits/Misses/Evictions count fingerprint lookups that
	// skipped or required Compile, and capacity evictions.
	PlanCacheHits, PlanCacheMisses, PlanCacheEvictions int
	// FeedbackWarmStarts counts submissions that began at a cached
	// converged order; FeedbackStores counts adaptive completions that
	// deposited one.
	FeedbackWarmStarts, FeedbackStores int
	// Reopt sums the decision ledgers of the completed adaptive queries:
	// what re-optimization cost the served workload.
	Reopt Ledger
	// MakespanCycles/Millis is the simulated time the core pool has been
	// driven to — the whole workload's completion time.
	MakespanCycles uint64
	MakespanMillis float64
}

// ServedInfo reports how a submission moved through the server, attached to
// its ExecResult. All times are simulated cycles.
type ServedInfo struct {
	// Arrival, Start, and Done are points on the simulated clock;
	// Done-Arrival is the query's latency including queueing and
	// Start-Arrival the queueing delay alone.
	Arrival, Start, Done uint64
	// LatencyCycles/Millis is Done-Arrival on the simulated clock.
	LatencyCycles uint64
	LatencyMillis float64
	// PlanCacheHit reports that Compile was skipped; WarmStart that the
	// run began at a feedback-cached converged order.
	PlanCacheHit, WarmStart bool
	// Fingerprint is the canonical plan fingerprint (hex).
	Fingerprint string
}

// servedProvenance records, on a compiled query, how the most recent
// Server.Submit obtained it; Explain reports it.
type servedProvenance struct {
	fingerprint  string
	planCacheHit bool
	warmStart    bool
	warmOrder    []int
}

// Server runs a multi-query workload against one engine's simulated cores:
// an admission controller and fair scheduler partition the Config.Workers
// cores across concurrent queries at morsel granularity, a plan cache keyed
// by canonical fingerprint (table + operators + bounds + data-set
// generation) skips re-compilation of recurring plans, and a feedback cache
// warm-starts adaptive runs at the operator order a previous run of the
// same fingerprint converged to — amortizing the paper's PMU-observation
// cost across a workload instead of paying it per query.
//
// Everything runs on the simulated clock: a fixed submission trace yields
// bit-identical per-query results, latencies, and makespan on every host
// run, from any goroutines, at any GOMAXPROCS. A query that has the pool to
// itself executes exactly like Engine.Exec — both loop the same driver step
// (see equivalence_test.go).
type Server struct {
	e   *Engine
	svc *service.Server

	mu              sync.Mutex
	plans           *service.LRU
	planHits        int
	planMisses      int
	disableFeedback bool

	// subSeq numbers submissions; resDone/resSeq stamp the stored query whose
	// residency the resident gauge currently reports, so racing waiters
	// publish the gauge in simulated completion order (ties to the later
	// submission), not host completion order.
	subSeq, resSeq uint64
	resDone        uint64
	resSet         bool

	// met is the server's simulated-time metrics registry, always on (see
	// WriteMetrics); metrics are host-side bookkeeping and perturb nothing.
	met *serverMetrics
}

// serverMetrics bundles the server's registry and its instruments, registered
// once in a fixed order so the exposition is byte-identical for identical
// workloads.
type serverMetrics struct {
	reg *trace.Metrics

	submitted, admitted, rejected, completed *trace.Gauge
	planHits, planMisses, planEvictions      *trace.Gauge
	warmStarts, feedbackStores               *trace.Gauge
	reopt                                    [5]*trace.Gauge
	latency                                  *trace.Summary
	latP50, latP95, latP99                   *trace.Gauge
	makespan                                 *trace.Gauge
	resident                                 *trace.Gauge
}

func newServerMetrics() *serverMetrics {
	reg := trace.NewMetrics()
	return &serverMetrics{
		reg:            reg,
		submitted:      reg.Gauge("progopt_queries_submitted", "Queries submitted to the server."),
		admitted:       reg.Gauge("progopt_queries_admitted", "Queries admitted by the admission controller."),
		rejected:       reg.Gauge("progopt_queries_rejected", "Queries rejected at the queue limit."),
		completed:      reg.Gauge("progopt_queries_completed", "Queries completed."),
		planHits:       reg.Gauge("progopt_plan_cache_hits", "Plan-cache lookups that skipped Compile."),
		planMisses:     reg.Gauge("progopt_plan_cache_misses", "Plan-cache lookups that required Compile."),
		planEvictions:  reg.Gauge("progopt_plan_cache_evictions", "Plan-cache capacity evictions."),
		warmStarts:     reg.Gauge("progopt_feedback_warm_starts", "Submissions that began at a feedback-cached converged order."),
		feedbackStores: reg.Gauge("progopt_feedback_stores", "Adaptive completions that deposited a converged order."),
		latency:        reg.Summary("progopt_query_latency_cycles", "Per-query simulated latency (Done-Arrival), in cycles."),
		latP50:         reg.Gauge("progopt_query_latency_p50_millis", "p50 simulated query latency, in simulated milliseconds."),
		latP95:         reg.Gauge("progopt_query_latency_p95_millis", "p95 simulated query latency, in simulated milliseconds."),
		latP99:         reg.Gauge("progopt_query_latency_p99_millis", "p99 simulated query latency, in simulated milliseconds."),
		makespan:       reg.Gauge("progopt_makespan_millis", "Simulated time the core pool has been driven to."),
		resident:       reg.Gauge("progopt_storage_resident_bytes", "Storage-tier bytes resident in the DRAM budget after the most recent stored query."),
		reopt: [5]*trace.Gauge{
			reg.Gauge("progopt_reopt_sample_cycles", "Simulated cycles adaptive queries were charged for PMU sampling and estimation."),
			reg.Gauge("progopt_reopt_recompile_cycles", "Simulated cycles charged for reorders, reverts, probes and implementation switches."),
			reg.Gauge("progopt_reopt_reverted_cycles", "Simulated cycles spent in steps whose operator order validation rolled back."),
			reg.Gauge("progopt_reopt_regret_cycles", "Excess of those steps over the step they were validated against."),
			reg.Gauge("progopt_reopt_held_off", "Optimization points sat out by the back-off after a revert."),
		},
	}
}

// NewServer builds a workload server on the engine. The server schedules on
// its own pool of simulated cores (same profile and count as the engine's),
// so serving and direct Exec calls do not disturb each other's hardware
// state.
func NewServer(e *Engine, cfg ServerConfig) (*Server, error) {
	if e == nil {
		return nil, fmt.Errorf("progopt: NewServer needs an engine")
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 64
	}
	svc, err := service.New(e.cpu.Profile(), e.Workers(), e.eng.VectorSize(), service.Config{
		MaxActive:      cfg.MaxActive,
		QueueLimit:     cfg.QueueLimit,
		QuantumVectors: cfg.QuantumVectors,
	})
	if err != nil {
		return nil, err
	}
	svc.MatchEngine(e.eng)
	// When the engine traces, the server's pool and admission events join the
	// same recorder: per-pool-core tracks plus a service track. Track creation
	// happens here, before any scheduling, so track order is deterministic.
	if e.tr != nil {
		rec := e.tr.rec
		pool := make([]*trace.Track, svc.Workers())
		for i := range pool {
			pool[i] = rec.NewTrack(fmt.Sprintf("pool %d", i))
		}
		svc.SetTrace(rec.NewTrack("service"), pool)
	}
	return &Server{
		e:               e,
		svc:             svc,
		plans:           service.NewLRU(cfg.PlanCacheSize),
		disableFeedback: cfg.DisableFeedback,
		met:             newServerMetrics(),
	}, nil
}

// Ticket is the handle to one submission; Wait blocks until the query
// completes and returns its result.
type Ticket struct {
	s       *Server
	t       *service.Ticket
	q       *Query
	fp      service.Fingerprint
	planHit bool
	// stviews are this submission's private tier views (fresh residency per
	// submission, so plan-cache sharing never shares residency); nil for
	// in-RAM engines.
	stviews []*exec.StorageScan
	// seq is the submission's position in program submission order; it
	// tie-breaks the resident gauge when two stored queries complete at the
	// same simulated cycle.
	seq uint64
	// observed says the query's latency is in the summary: a ticket may be
	// waited on several times but is one query. Guarded by s.mu.
	observed bool
}

// Query returns the compiled query the server executes for this submission
// (shared with the plan cache). Engine.Explain on it reports the serving
// provenance — plan-cache hit, warm start, fingerprint.
func (t *Ticket) Query() *Query { return t.q }

// Submit enqueues a plan for execution with arrival "now" (the earliest
// simulated time a core is free). See SubmitAt for trace-driven arrivals.
func (s *Server) Submit(d *Dataset, p *Plan, opts ExecOptions) (*Ticket, error) {
	return s.SubmitAt(d, p, opts, s.svc.Now())
}

// SubmitAt enqueues a plan with an explicit simulated arrival time. The
// plan is fingerprinted (canonically, so step order does not matter),
// compiled unless the plan cache already holds its fingerprint, warm-started
// from the feedback cache when a previous run of the same fingerprint
// converged, and queued; execution happens inside Ticket.Wait's scheduling
// rounds. For a deterministic workload, submit the trace in arrival order
// before (or while) waiting.
func (s *Server) SubmitAt(d *Dataset, p *Plan, opts ExecOptions, arrival uint64) (*Ticket, error) {
	if d == nil {
		return nil, fmt.Errorf("progopt: Submit needs a data set")
	}
	if p == nil {
		return nil, fmt.Errorf("progopt: Submit needs a plan")
	}
	// Before the plan cache is consulted: a submission refused for its mode
	// compiles and caches nothing and counts no miss.
	if err := checkMode(opts.Mode, p.group != nil); err != nil {
		return nil, err
	}
	terms, err := p.fingerprintTerms()
	if err != nil {
		return nil, err
	}
	fp := service.Compute(p.fingerprintTable(), d.gen, terms)

	s.mu.Lock()
	var q *Query
	hit := false
	if v, ok := s.plans.Get(fp); ok {
		q = v.(*Query)
		hit = true
		s.planHits++
	} else {
		s.planMisses++
	}
	s.mu.Unlock()
	if !hit {
		q, err = s.e.Compile(d, p)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.plans.Put(fp, q)
		s.mu.Unlock()
	}
	// Served steppers share the engine's optimizer track (spec.Opt.Trace):
	// each query's stepper records decisions into a private stage and the
	// scheduler splices the stages into this track at the round barrier in
	// admission order, so decision events from concurrent queries interleave
	// deterministically (each stamped with its own query's accounted block
	// clock) even when segments execute host-parallel.
	req := service.Request{Spec: s.e.spec(q, opts), Arrival: arrival, Fingerprint: fp, NoFeedback: s.disableFeedback}
	var stviews []*exec.StorageScan
	if q.storage != nil {
		stviews, err = q.storage.freshViews()
		if err != nil {
			return nil, err
		}
		req.Storage = stviews
	}
	tk, err := s.svc.Submit(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.subSeq++
	seq := s.subSeq
	s.mu.Unlock()
	// Warm-start provenance is decided when the admission controller
	// activates the query; Wait refreshes it.
	q.served.Store(&servedProvenance{fingerprint: fp.String(), planCacheHit: hit})
	return &Ticket{s: s, t: tk, q: q, fp: fp, planHit: hit, stviews: stviews, seq: seq}, nil
}

// Close releases the host worker goroutines of the server's core pool, if
// any were started (see exec.Parallel.Close). The server remains usable
// afterwards.
func (s *Server) Close() { s.svc.Close() }

// Wait drives the server's deterministic scheduler until this submission
// completes and returns its result. Result.Cycles/Millis are the query's
// execution span on its assigned cores (for a query that had the pool to
// itself, bit-identical to Engine.Exec); Served carries arrival/latency
// timestamps and cache provenance.
func (t *Ticket) Wait() (ExecResult, error) {
	o, err := t.t.Wait()
	if err != nil {
		return ExecResult{}, err
	}
	t.q.served.Store(&servedProvenance{
		fingerprint:  t.fp.String(),
		planCacheHit: t.planHit,
		warmStart:    o.WarmStarted,
		warmOrder:    o.WarmOrder,
	})
	out := toExecResult(o.Result, o.Groups, o.Sorted, o.Stats)
	if t.stviews != nil {
		// Same out-of-band accounting as Engine.Exec: the tier observes, its
		// stall debt extends the query's reported execution span (not the
		// server's discrete-event clock, which schedules on compute time).
		stats, maxStall := storageStats(t.q.storage.plan, t.stviews, nil)
		out.Storage = stats
		out.Cycles += maxStall
		out.Millis = t.s.e.cpu.MillisOf(out.Cycles)
	}
	lat := o.Done - o.Arrival
	var res uint64
	for _, v := range t.stviews {
		if v != nil && v.Set != nil {
			res += v.Set.ResidentBytes()
		}
	}
	s := t.s
	s.mu.Lock()
	if !t.observed {
		// Latency observations are integral cycle counts, so the summary's sum
		// and quantiles are exact and independent of Wait completion order.
		t.observed = true
		s.met.latency.Observe(float64(lat))
	}
	// The gauge reports the most recent stored query on the *simulated*
	// clock (ties to the later submission), so racing waiters publish it
	// deterministically regardless of host completion order.
	if t.stviews != nil && (!s.resSet || o.Done > s.resDone || (o.Done == s.resDone && t.seq > s.resSeq)) {
		s.resSet, s.resDone, s.resSeq = true, o.Done, t.seq
		s.met.resident.Set(float64(res))
	}
	s.mu.Unlock()
	out.Served = &ServedInfo{
		Arrival:       o.Arrival,
		Start:         o.Start,
		Done:          o.Done,
		LatencyCycles: lat,
		LatencyMillis: t.s.e.cpu.MillisOf(lat),
		PlanCacheHit:  t.planHit,
		WarmStart:     o.WarmStarted,
		Fingerprint:   t.fp.String(),
	}
	return out, nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	st := s.svc.Stats()
	s.mu.Lock()
	out := ServerStats{
		Submitted:          st.Submitted,
		Admitted:           st.Admitted,
		Rejected:           st.Rejected,
		Completed:          st.Completed,
		PeakActive:         st.PeakActive,
		PeakQueued:         st.PeakQueued,
		PlanCacheHits:      s.planHits,
		PlanCacheMisses:    s.planMisses,
		PlanCacheEvictions: s.plans.Evictions(),
		FeedbackWarmStarts: st.FeedbackWarmStarts,
		FeedbackStores:     st.FeedbackStores,
		Reopt:              st.Reopt,
		MakespanCycles:     st.MakespanCycles,
	}
	s.mu.Unlock()
	out.MakespanMillis = s.e.cpu.MillisOf(out.MakespanCycles)
	return out
}

// Workers returns the size of the server's core pool.
func (s *Server) Workers() int { return s.svc.Workers() }

// WriteMetrics renders the server's metrics in the Prometheus text exposition
// format (version 0.0.4): query throughput, plan- and feedback-cache
// effectiveness, p50/p95/p99 simulated latency, pool makespan, and
// storage-tier residency. Every value is a simulated quantity; exposition is
// byte-identical for identical workloads.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	m := s.met
	m.submitted.Set(float64(st.Submitted))
	m.admitted.Set(float64(st.Admitted))
	m.rejected.Set(float64(st.Rejected))
	m.completed.Set(float64(st.Completed))
	m.planHits.Set(float64(st.PlanCacheHits))
	m.planMisses.Set(float64(st.PlanCacheMisses))
	m.planEvictions.Set(float64(st.PlanCacheEvictions))
	m.warmStarts.Set(float64(st.FeedbackWarmStarts))
	m.feedbackStores.Set(float64(st.FeedbackStores))
	for i, v := range [5]uint64{st.Reopt.SampleCycles, st.Reopt.RecompileCycles, st.Reopt.RevertedCycles, st.Reopt.RegretCycles, uint64(st.Reopt.HeldOff)} {
		m.reopt[i].Set(float64(v))
	}
	m.latP50.Set(s.e.cpu.MillisOf(uint64(m.latency.Quantile(0.5))))
	m.latP95.Set(s.e.cpu.MillisOf(uint64(m.latency.Quantile(0.95))))
	m.latP99.Set(s.e.cpu.MillisOf(uint64(m.latency.Quantile(0.99))))
	m.makespan.Set(st.MakespanMillis)
	return m.reg.WritePrometheus(w)
}
