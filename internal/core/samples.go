package core

import (
	"progopt/internal/hw/pmu"
	"progopt/internal/trace"
)

// Sample is one progressive-sampling observation: the PMU evidence an
// optimization cycle saw and the selectivity estimate it produced. The
// stepper retains a bounded series of these on Stats, so end-state statistics,
// the trace's optimizer track, and the ext-* figures all share one source of
// truth for the convergence timeline.
type Sample struct {
	// Cycles is the sampling clock relative to the run's start: the
	// stepper's accounted query clock — on one core that core's own clock,
	// on a pool the sum of block makespans and coordination (comparable to
	// the reported makespan).
	Cycles uint64
	// Tuples is how many tuples the sampled PMU delta covers.
	Tuples int
	// Counters is the interval's PMU delta projected to the paper's
	// four-counter group (plus the fixed counters).
	Counters pmu.Sample
	// Sels is the selectivity estimate in current-order space, nil when the
	// cycle did not estimate (e.g. an exploration probe).
	Sels []float64
}

// maxSampleHistory bounds Stats.Samples: the ring keeps the most recent
// observations and drops the oldest, so a long-running query cannot grow its
// stats without bound while short runs (every figure in the repo) retain the
// complete series.
const maxSampleHistory = 512

// selsChunkSamples is how many retained estimates share one allocation.
const selsChunkSamples = 16

// keepSels copies an estimate borrowed from the Estimator into storage the
// stats own, carving it from a chunk shared by selsChunkSamples estimates so
// that retaining one per decision is not an allocation per decision. The
// returned slice is never written again: LastEstimate, the sample series and
// trace events all retain it.
func (st *Stats) keepSels(sels []float64) []float64 {
	if len(sels) > cap(st.selsChunk)-len(st.selsChunk) {
		st.selsChunk = make([]float64, 0, selsChunkSamples*len(sels))
	}
	n := len(st.selsChunk)
	st.selsChunk = append(st.selsChunk, sels...)
	return st.selsChunk[n:len(st.selsChunk):len(st.selsChunk)]
}

func (st *Stats) addSample(s Sample) {
	if len(st.Samples) >= maxSampleHistory {
		copy(st.Samples, st.Samples[1:])
		st.Samples = st.Samples[:maxSampleHistory-1]
	}
	st.Samples = append(st.Samples, s)
}

var paperGroup = pmu.PaperGroup()

// pmuArgs renders the paper-group counters of one sampled delta as trace
// args — the evidence attached to sampling and decision events.
func pmuArgs(s pmu.Sample) [4]trace.Arg {
	return [4]trace.Arg{
		trace.Uint64("br_not_taken", s.Get(pmu.BrNotTaken)),
		trace.Uint64("br_mp_taken", s.Get(pmu.BrMPTaken)),
		trace.Uint64("br_mp_not_taken", s.Get(pmu.BrMPNotTaken)),
		trace.Uint64("l3_access", s.Get(pmu.L3Access)),
	}
}

// traceSample emits one sampling observation on the optimizer decision track
// (at is the absolute clock of the sampling core, aligning the instant with
// that core's execution spans).
func traceSample(tr *trace.Track, at uint64, s Sample) {
	if tr == nil {
		return
	}
	ev := pmuArgs(s.Counters)
	tr.Instant("sample", at, trace.Int("tuples", s.Tuples), ev[0], ev[1], ev[2], ev[3],
		trace.Float64s("est_sels", s.Sels))
}

// traceDecision emits a plan-change event (reorder, revert, explore,
// impl-switch) with the counter evidence that triggered it.
func traceDecision(tr *trace.Track, name string, at uint64, evidence pmu.Sample, extra ...trace.Arg) {
	if tr == nil {
		return
	}
	// Room for every caller's extras plus the evidence, on the stack.
	var buf [8]trace.Arg
	ev := pmuArgs(evidence)
	tr.Instant(name, at, append(append(buf[:0], extra...), ev[:]...)...)
}
