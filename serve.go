package progopt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"progopt/internal/service"
	"progopt/internal/trace"
)

// ServerConfig configures a workload server.
type ServerConfig struct {
	// MaxActive caps the admitted queries (default: the engine's worker
	// count). One admitted query runs on every core and the others wait;
	// when it completes, the one of shortest expected span (its
	// fingerprint's last completed run) runs next, and a query overtaken
	// MaxActive times runs next regardless. A query is warm-started from the
	// feedback cache when it is admitted. Submissions beyond the cap queue.
	MaxActive int
	// QueueLimit caps the pending queue; Submit rejects beyond it
	// (0 = unlimited).
	QueueLimit int
	// PlanCacheSize bounds the fingerprint-keyed compiled-plan cache
	// (default 64 plans). A hit skips Compile entirely.
	PlanCacheSize int
	// QuantumVectors is the scheduling quantum of fixed-order queries:
	// morsels per core between admission decisions (default 10).
	QuantumVectors int
	// DisableFeedback turns warm starts off (every run starts from the plan
	// order; nothing is stored, so every expected span ties and admitted
	// queries run oldest first) — the cold baseline of the ext-serve
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
	fingerprint  service.Fingerprint
	planCacheHit bool
	warmStart    bool
	warmOrder    []int
}

// Server runs a multi-query workload against one engine's simulated cores:
// an admission controller admits queries in arrival order and one admitted
// query at a time runs to completion on all Config.Workers cores, its first
// morsels on the cores its predecessor's last ones freed — the one of
// shortest expected span, costed from the feedback cache; a plan cache keyed
// by canonical fingerprint (table + operators + bounds + data-set
// generation) skips re-compilation of recurring plans, and a feedback cache
// warm-starts adaptive runs at the operator order a previous run of the
// same fingerprint converged to and prices every run by the span of the
// last — amortizing the paper's PMU-observation cost across a workload
// instead of paying it per query.
//
// Everything runs on the simulated clock: a fixed submission trace yields
// bit-identical per-query results, latencies, and makespan on every host
// run, from any goroutines, at any GOMAXPROCS. A query that finds the pool
// idle executes exactly like Engine.Exec — both loop the same driver step
// (see equivalence_test.go).
type Server struct {
	e   *Engine
	svc *service.Server

	mu              sync.Mutex
	plans           *service.LRU
	planHits        int
	planMisses      int
	disableFeedback bool
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
	svc, err := service.New(e.core0().CPU().Profile(), e.Workers(), e.par.VectorSize(), service.Config{
		MaxActive:      cfg.MaxActive,
		QueueLimit:     cfg.QueueLimit,
		QuantumVectors: cfg.QuantumVectors,
	})
	if err != nil {
		return nil, err
	}
	svc.MatchEngine(e.core0())
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
	fp, err := p.fingerprint(d.gen)
	if err != nil {
		return nil, err
	}

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
	// one query steps at a time, so its decision events (each stamped with
	// its own query's accounted block clock) append in execution order.
	// The server builds a stored query's stream at admission, so plan-cache
	// sharing never shares residency.
	req := service.Request{Spec: s.e.spec(q, opts), Arrival: arrival}
	if !s.disableFeedback {
		req.Fingerprint = fp
	}
	if q.storage != nil {
		req.Storage = q.storage.plan
	}
	tk, err := s.svc.Submit(req)
	if err != nil {
		return nil, err
	}
	// Warm-start provenance is decided when the admission controller
	// activates the query; Wait refreshes it.
	q.served.Store(&servedProvenance{fingerprint: fp, planCacheHit: hit})
	return &Ticket{s: s, t: tk, q: q, fp: fp, planHit: hit}, nil
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
		fingerprint:  t.fp,
		planCacheHit: t.planHit,
		warmStart:    o.WarmStarted,
		warmOrder:    o.WarmOrder,
	})
	out := toExecResult(o.Result, o.Groups, o.Sorted, o.Stats)
	if o.Storage != nil {
		out.Storage = storageStats(t.q.storage.plan, o.Storage)
	}
	lat := o.Done - o.Arrival
	out.Served = &ServedInfo{
		Arrival:       o.Arrival,
		Start:         o.Start,
		Done:          o.Done,
		LatencyCycles: lat,
		LatencyMillis: t.s.e.millis(lat),
		PlanCacheHit:  t.planHit,
		WarmStart:     o.WarmStarted,
		Fingerprint:   t.fp.String(),
	}
	return out, nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	out, _ := s.stats()
	return out
}

// stats snapshots the server counters and returns them with the service's
// snapshot they were read from.
func (s *Server) stats() (ServerStats, service.Stats) {
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
	out.MakespanMillis = s.e.millis(out.MakespanCycles)
	return out, st
}

// Workers returns the size of the server's core pool.
func (s *Server) Workers() int { return s.svc.Workers() }

// WriteMetrics renders the server's metrics in the Prometheus text exposition
// format (version 0.0.4): query throughput, plan- and feedback-cache
// effectiveness, p50/p95/p99 simulated latency, pool makespan, and
// storage-tier residency. Latency covers every completed query, waited on or
// not. Every value is a simulated quantity; exposition is byte-identical for
// identical workloads.
func (s *Server) WriteMetrics(w io.Writer) error {
	st, svc := s.stats()
	lat := svc.LatencyCycles // the snapshot's own copy
	slices.Sort(lat)
	var b bytes.Buffer
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatValue(v))
	}
	gauge("progopt_queries_submitted", "Queries submitted to the server.", float64(st.Submitted))
	gauge("progopt_queries_admitted", "Queries admitted by the admission controller.", float64(st.Admitted))
	gauge("progopt_queries_rejected", "Queries rejected at the queue limit.", float64(st.Rejected))
	gauge("progopt_queries_completed", "Queries completed.", float64(st.Completed))
	gauge("progopt_plan_cache_hits", "Plan-cache lookups that skipped Compile.", float64(st.PlanCacheHits))
	gauge("progopt_plan_cache_misses", "Plan-cache lookups that required Compile.", float64(st.PlanCacheMisses))
	gauge("progopt_plan_cache_evictions", "Plan-cache capacity evictions.", float64(st.PlanCacheEvictions))
	gauge("progopt_feedback_warm_starts", "Submissions that began at a feedback-cached converged order.", float64(st.FeedbackWarmStarts))
	gauge("progopt_feedback_stores", "Adaptive completions that deposited a converged order.", float64(st.FeedbackStores))
	writeLatencySummary(&b, lat)
	gauge("progopt_query_latency_p50_millis", "p50 simulated query latency, in simulated milliseconds.", s.e.millis(nearestRank(lat, 0.5)))
	gauge("progopt_query_latency_p95_millis", "p95 simulated query latency, in simulated milliseconds.", s.e.millis(nearestRank(lat, 0.95)))
	gauge("progopt_query_latency_p99_millis", "p99 simulated query latency, in simulated milliseconds.", s.e.millis(nearestRank(lat, 0.99)))
	gauge("progopt_makespan_millis", "Simulated time the core pool has been driven to.", st.MakespanMillis)
	gauge("progopt_storage_resident_bytes", "Storage-tier bytes the most recent stored query left resident: at most the configured resident budget, unless a single block exceeds it.", float64(svc.ResidentBytes))
	gauge("progopt_reopt_sample_cycles", "Simulated cycles adaptive queries were charged for PMU sampling and estimation.", float64(st.Reopt.SampleCycles))
	gauge("progopt_reopt_recompile_cycles", "Simulated cycles charged for reorders, reverts, probes and implementation switches.", float64(st.Reopt.RecompileCycles))
	gauge("progopt_reopt_reverted_cycles", "Simulated cycles spent in steps whose operator order validation rolled back.", float64(st.Reopt.RevertedCycles))
	gauge("progopt_reopt_regret_cycles", "Excess of those steps over the step they were validated against.", float64(st.Reopt.RegretCycles))
	gauge("progopt_reopt_held_off", "Optimization points sat out by the back-offs after a revert and after a run of confirmations.", float64(st.Reopt.HeldOff))
	gauge("progopt_reopt_idle_cycles", "Core-cycles adaptive queries' cores sat idle at step barriers and while one core coordinated.", float64(st.Reopt.IdleCycles))
	_, err := w.Write(b.Bytes())
	return err
}

// writeLatencySummary writes the latency summary of the ascending latencies
// lat: nearest-rank p50/p95/p99, then _sum and _count.
func writeLatencySummary(b *bytes.Buffer, lat []uint64) {
	const name = "progopt_query_latency_cycles"
	fmt.Fprintf(b, "# HELP %s Per-query simulated latency (Done-Arrival), in cycles.\n# TYPE %s summary\n", name, name)
	for _, q := range [...]float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(b, "%s{quantile=%q} %s\n", name, formatValue(q), formatValue(float64(nearestRank(lat, q))))
	}
	var sum uint64
	for _, v := range lat {
		sum += v
	}
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, formatValue(float64(sum)), name, len(lat))
}

// nearestRank returns the q-quantile (0 <= q <= 1) of the ascending xs by
// nearest rank, the ceil(q*n)-th smallest, or 0 when xs is empty.
func nearestRank(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
