package progopt

import (
	"fmt"
	"io"
	"os"

	"progopt/internal/trace"
)

// TraceOptions enable event recording on an engine (Config.Trace). Recording
// is a pure observer of the simulation: it charges no simulated work, so a
// traced run is bit-identical — results, cycles, every PMU counter — to the
// same run untraced, and identical configurations produce byte-identical
// trace files across runs and GOMAXPROCS (all events carry simulated clocks,
// never host time). A track keeps its first 1<<20 events and counts the rest
// as dropped.
type TraceOptions struct{}

// Trace is an engine's event recorder: one track per simulated core (vector,
// morsel, pipeline, and storage-tier events), an optimizer track (sampling
// observations and plan decisions with their PMU evidence), and — when a
// Server is built on the engine — per-pool-core and service tracks for
// admission and scheduling events. Obtain it from Engine.Trace.
type Trace struct {
	rec *trace.Recorder
	// cores are the engine's per-core tracks and opt its optimizer decision
	// track.
	cores []*trace.Track
	opt   *trace.Track
}

// newTrace builds the recorder and the engine-side tracks.
func newTrace(workers int) *Trace {
	rec := trace.New()
	cores := make([]*trace.Track, workers)
	for i := range cores {
		cores[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
	}
	return &Trace{rec: rec, cores: cores, opt: rec.NewTrack("optimizer")}
}

// NumEvents returns the number of recorded events across all tracks.
func (t *Trace) NumEvents() int {
	if t == nil {
		return 0
	}
	return t.rec.Events()
}

// Reset discards every recorded event but keeps the tracks, so one engine can
// emit one trace file per query or per experiment.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.rec.Reset()
}

// WriteChrome writes the recorded events as Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing: one named thread per
// track, spans as complete events, decisions as instants, 1 trace nanosecond
// per simulated cycle. Output is byte-identical for identical simulations.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("progopt: tracing is not enabled (set Config.Trace)")
	}
	return t.rec.WriteChrome(w)
}

// WriteChromeFile writes the Chrome trace-event JSON to a file.
func (t *Trace) WriteChromeFile(path string) error {
	if t == nil {
		return fmt.Errorf("progopt: tracing is not enabled (set Config.Trace)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace returns the engine's event recorder, or nil when Config.Trace was not
// set.
func (e *Engine) Trace() *Trace { return e.tr }

// TraceAgg is one line of a per-query trace summary: every occurrence of one
// event Name ("vector", "reorder", "tier-fetch", ...) during the query, their
// Count, and their summed simulated span length in Cycles (instant events
// contribute 0). Reported by Explain for the most recently traced execution of
// a query.
type TraceAgg = trace.NameAgg
