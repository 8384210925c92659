// Package trace is the engine's deterministic observability layer: an event
// recorder keyed entirely on the simulated clock, a Chrome trace-event (JSON)
// exporter loadable in Perfetto, and a simulated-time metrics registry with
// Prometheus text exposition.
//
// Two invariants shape the design:
//
//   - Pure observer. Recording an event performs no simulated work — callers
//     pass in cycle values they already read from their core's clock, and the
//     recorder touches no cache, predictor, or counter state. Traced and
//     untraced runs are therefore bit-identical in results, cycles, and every
//     PMU counter (pinned by the equivalence suite).
//
//   - Determinism. Events carry simulated cycles, never host time, and every
//     track has a single writer at any instant: a core's track is appended by
//     whichever host goroutine runs that simulated core (the lookahead
//     scheduler certifies the per-core morsel order equals the serial
//     schedule), and the optimizer/service tracks are appended only between
//     blocks or under the service lock. Append order per track is thus a pure function of the
//     simulation, so exporting tracks in creation order and events in append
//     order yields byte-identical files across runs, GOMAXPROCS, and hosts.
//
// The zero-overhead-when-disabled contract is structural: a disabled path
// holds a nil *Track, every method is a nil-receiver no-op, and hot loops
// guard with a single pointer test before building any argument.
package trace

import "math"

// Arg is one key/value annotation on an event: a small tagged value built by
// the typed constructors below, restricted to the JSON-exact kinds the
// exporter can serialize deterministically. Numbers, booleans and strings are
// stored inline and no constructor takes an interface, so building an Arg —
// and passing a list of them to Span or Instant, which copy it — allocates
// nothing.
type Arg struct {
	Key    string
	kind   argKind
	num    uint64 // uint64, int, int64 (two's complement), float64 bits, bool
	str    string
	ints   []int
	floats []float64
}

// argKind tags the value an Arg carries.
type argKind uint8

const (
	kindUint64 argKind = iota
	kindInt
	kindInt64
	kindFloat64
	kindBool
	kindString
	kindInts
	kindFloat64s
)

// Uint64 returns an Arg holding an unsigned counter or cycle value.
func Uint64(key string, v uint64) Arg { return Arg{Key: key, kind: kindUint64, num: v} }

// Int returns an Arg holding an int.
func Int(key string, v int) Arg { return Arg{Key: key, kind: kindInt, num: uint64(v)} }

// Int64 returns an Arg holding an int64.
func Int64(key string, v int64) Arg { return Arg{Key: key, kind: kindInt64, num: uint64(v)} }

// Float64 returns an Arg holding a float64 (non-finite values export as
// strings, see appendFloat).
func Float64(key string, v float64) Arg {
	return Arg{Key: key, kind: kindFloat64, num: math.Float64bits(v)}
}

// Bool returns an Arg holding a boolean.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// String returns an Arg holding a string.
func String(key, v string) Arg { return Arg{Key: key, kind: kindString, str: v} }

// Ints returns an Arg holding an int slice (an operator order). The slice is
// retained, not copied: the caller must not mutate it afterwards.
func Ints(key string, v []int) Arg { return Arg{Key: key, kind: kindInts, ints: v} }

// Float64s returns an Arg holding a float64 slice (selectivity estimates),
// retained like Ints'.
func Float64s(key string, v []float64) Arg { return Arg{Key: key, kind: kindFloat64s, floats: v} }

// Value returns the annotation's value in the type it was built from:
// uint64, int, int64, float64, bool, string, []int or []float64. It boxes,
// so it is for readers of a finished trace, not for recording.
func (a Arg) Value() any {
	switch a.kind {
	case kindUint64:
		return a.num
	case kindInt:
		return int(a.num)
	case kindInt64:
		return int64(a.num)
	case kindFloat64:
		return math.Float64frombits(a.num)
	case kindBool:
		return a.num != 0
	case kindString:
		return a.str
	case kindInts:
		return a.ints
	default:
		return a.floats
	}
}

// Event is one recorded span or instant on a track. Start and End are
// simulated cycles on the owning core's clock; an instant has End == Start.
// Its annotations live in the owning track's arg arena (Track.Args).
type Event struct {
	Name    string
	Start   uint64
	End     uint64
	Instant bool
	// The event's annotations are args[argLo:argHi] of its track.
	argLo, argHi uint32
}

// Track is an append-only event sequence owned by one timeline (a simulated
// core, the optimizer, the service scheduler). All methods are safe on a nil
// receiver and do nothing, so a nil Track is the disabled state.
type Track struct {
	name   string
	events []Event
	// args is the arena every event's annotation list is copied into, in
	// event order; Reset truncates it with the events, so a warm track
	// records without allocating.
	args    []Arg
	limit   int
	dropped int

	// Pads the struct to 128 bytes: per-core tracks are allocated back to back
	// and each is appended to by a different host thread (see DESIGN.md,
	// "False-sharing layout rule").
	_ [48]byte
}

// Name returns the track's display name.
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Events returns the recorded events (borrowed, not copied).
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Args returns the annotations of the i-th event of Events (borrowed, not
// copied).
func (t *Track) Args(i int) []Arg {
	if t == nil {
		return nil
	}
	ev := &t.events[i]
	return t.args[ev.argLo:ev.argHi]
}

// Dropped returns how many events were discarded after the track filled.
func (t *Track) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Span records a [start, end] interval. The args are copied into the track;
// slice values inside them are retained as given.
func (t *Track) Span(name string, start, end uint64, args ...Arg) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Start: start, End: end}, args)
}

// Instant records a point event at the given cycle.
func (t *Track) Instant(name string, at uint64, args ...Arg) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Start: at, End: at, Instant: true}, args)
}

func (t *Track) add(ev Event, args []Arg) {
	if t.limit > 0 && len(t.events) >= t.limit {
		// Full tracks drop deterministically: the first limit events are
		// kept, the drop count is exported so truncation is visible.
		t.dropped++
		return
	}
	ev.argLo = uint32(len(t.args))
	t.args = append(t.args, args...)
	ev.argHi = uint32(len(t.args))
	t.events = append(t.events, ev)
}

// reset empties the track and its arg arena, keeping both buffers.
func (t *Track) reset() {
	t.events = t.events[:0]
	t.args = t.args[:0]
	t.dropped = 0
}

// DefaultMaxEventsPerTrack bounds a track's buffer when the recorder was not
// given an explicit limit; generous enough for every in-repo workload while
// keeping a runaway loop from exhausting host memory.
const DefaultMaxEventsPerTrack = 1 << 20

// Recorder owns an ordered set of tracks. Track creation is not synchronized:
// create every track up front, on one goroutine, before handing the handles
// to their owners (the engine attach path does exactly this).
type Recorder struct {
	tracks []*Track
	limit  int
	// out is WriteChrome's buffer, kept (also across Reset) so repeated
	// exports reuse it.
	out []byte
}

// New returns an empty recorder with the default per-track event limit.
func New() *Recorder { return &Recorder{limit: DefaultMaxEventsPerTrack} }

// SetMaxEventsPerTrack bounds each subsequently created track's buffer;
// n <= 0 restores the default.
func (r *Recorder) SetMaxEventsPerTrack(n int) {
	if n <= 0 {
		n = DefaultMaxEventsPerTrack
	}
	r.limit = n
}

// NewTrack appends a track and returns its handle. Tracks export in creation
// order, so a fixed attach sequence yields a fixed file layout.
func (r *Recorder) NewTrack(name string) *Track {
	t := &Track{name: name, limit: r.limit}
	r.tracks = append(r.tracks, t)
	return t
}

// Tracks returns the tracks in creation order (borrowed, not copied).
func (r *Recorder) Tracks() []*Track { return r.tracks }

// NumTracks returns how many tracks exist.
func (r *Recorder) NumTracks() int { return len(r.tracks) }

// Events returns the total recorded event count across all tracks.
func (r *Recorder) Events() int {
	n := 0
	for _, t := range r.tracks {
		n += len(t.events)
	}
	return n
}

// Reset drops every recorded event and drop count but keeps the tracks, so
// long-lived attachments (benchmarks, serving sessions) can reuse buffers.
func (r *Recorder) Reset() {
	for _, t := range r.tracks {
		t.reset()
	}
}

// Marks snapshots each track's current event count; SummarizeSince uses it to
// aggregate only the events recorded after the snapshot (one run's worth on a
// recorder that accumulates across runs).
func (r *Recorder) Marks() []int {
	m := make([]int, len(r.tracks))
	for i, t := range r.tracks {
		m[i] = len(t.events)
	}
	return m
}

// NameAgg aggregates the events sharing one name: how often it occurred and
// the summed span length in simulated cycles (zero for instants).
type NameAgg struct {
	Name   string
	Count  int
	Cycles uint64
}

// SummarizeSince aggregates events recorded after marks (from Marks; nil
// means everything) grouped by event name, in first-appearance order.
func (r *Recorder) SummarizeSince(marks []int) []NameAgg {
	var (
		order []string
		byN   = map[string]*NameAgg{}
	)
	for i, t := range r.tracks {
		lo := 0
		if marks != nil && i < len(marks) {
			lo = marks[i]
		}
		for _, ev := range t.events[lo:] {
			a := byN[ev.Name]
			if a == nil {
				a = &NameAgg{Name: ev.Name}
				byN[ev.Name] = a
				order = append(order, ev.Name)
			}
			a.Count++
			a.Cycles += ev.End - ev.Start
		}
	}
	out := make([]NameAgg, len(order))
	for i, n := range order {
		out[i] = *byN[n]
	}
	return out
}
