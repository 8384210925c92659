package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var tr *Track
	tr.Span("x", 0, 10)
	tr.Instant("y", 5)
	if tr.Events() != nil || tr.Name() != "" || tr.Dropped() != 0 {
		t.Fatal("nil track must be inert")
	}
	// The disabled path builds no argument: an Arg is a plain value, so even
	// a call site that does not guard with the pointer test allocates nothing
	// on a nil track, slice-valued annotations included.
	order, sels := []int{2, 0, 1}, []float64{0.5, 0.25}
	if n := testing.AllocsPerRun(100, func() {
		tr.Span("vector", 0, 10, Int("rows", len(order)), Uint64("stall", 7), String("impl", "branching"),
			Bool("grouped", true), Float64("cost", 1.5), Int64("qual", -1))
		tr.Instant("reorder", 5, Ints("to", order), Float64s("est_sels", sels))
	}); n != 0 {
		t.Fatalf("recording on a nil track allocates %.0f times", n)
	}
	var g *Gauge
	var s *Summary
	g.Set(1)
	s.Observe(2)
	if g.Value() != 0 || s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatal("nil metrics must be inert")
	}
	var m *Metrics
	if m.Gauge("b", "") != nil || m.Summary("c", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if err := m.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackRecording(t *testing.T) {
	r := New()
	a := r.NewTrack("core 0")
	b := r.NewTrack("optimizer")
	a.Span("vector", 100, 220, Int("rows", 1024))
	a.Instant("fetch", 150, Uint64("block", 7))
	b.Instant("reorder", 200, Ints("order", []int{2, 0, 1}), Float64s("sels", []float64{0.1, 0.5, 0.9}))
	if r.NumTracks() != 2 || r.Events() != 3 {
		t.Fatalf("got %d tracks, %d events", r.NumTracks(), r.Events())
	}
	// Args reads each event's annotations back, by event index, in the type
	// they were built from.
	if got := a.Args(0); len(got) != 1 || got[0].Key != "rows" || got[0].Value() != 1024 {
		t.Fatalf("bad span args: %+v", got)
	}
	if got := a.Args(1); len(got) != 1 || got[0].Value() != uint64(7) {
		t.Fatalf("bad instant args: %+v", got)
	}
	if got := b.Args(0); len(got) != 2 || !reflect.DeepEqual(got[0].Value(), []int{2, 0, 1}) ||
		!reflect.DeepEqual(got[1].Value(), []float64{0.1, 0.5, 0.9}) {
		t.Fatalf("bad slice args: %+v", got)
	}
	if got := a.Events()[0]; got.Name != "vector" || got.Start != 100 || got.End != 220 || got.Instant {
		t.Fatalf("bad span: %+v", got)
	}
	if got := a.Events()[1]; !got.Instant || got.Start != 150 {
		t.Fatalf("bad instant: %+v", got)
	}
	sum := r.SummarizeSince(nil)
	if len(sum) != 3 || sum[0].Name != "vector" || sum[0].Cycles != 120 || sum[0].Count != 1 {
		t.Fatalf("bad summary: %+v", sum)
	}
	marks := r.Marks()
	a.Span("vector", 220, 300)
	since := r.SummarizeSince(marks)
	if len(since) != 1 || since[0].Name != "vector" || since[0].Cycles != 80 {
		t.Fatalf("bad incremental summary: %+v", since)
	}
	r.Reset()
	if r.Events() != 0 || r.NumTracks() != 2 {
		t.Fatal("reset must clear events and keep tracks")
	}
}

func TestTrackLimit(t *testing.T) {
	r := New()
	r.SetMaxEventsPerTrack(2)
	tr := r.NewTrack("tiny")
	for i := 0; i < 5; i++ {
		tr.Instant("e", uint64(i))
	}
	if len(tr.Events()) != 2 || tr.Dropped() != 3 {
		t.Fatalf("got %d events, %d dropped", len(tr.Events()), tr.Dropped())
	}
	var out bytes.Buffer
	if err := r.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events_dropped") {
		t.Fatal("truncation must be visible in the export")
	}
}

// TestWriteChrome checks the export is valid trace-event JSON with the fixed
// track layout and byte-identical across repeated writes.
func TestWriteChrome(t *testing.T) {
	r := New()
	core := r.NewTrack("core 0")
	opt := r.NewTrack("optimizer")
	core.Span("vector", 1000, 2500, Int("rows", 512), String("note", `quoted "name"`))
	opt.Instant("reorder", 1800, Ints("order", []int{1, 0}), Bool("ok", true), Float64("gain", 1.25))

	var w1, w2 bytes.Buffer
	if err := r.WriteChrome(&w1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("repeated exports must be byte-identical")
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w1.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Two thread_name metadata events, then the two recorded events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "thread_name" {
		t.Fatalf("first event must be track metadata, got %v", meta)
	}
	span := doc.TraceEvents[2]
	if span["ph"] != "X" || span["ts"].(float64) != 1.0 || span["dur"].(float64) != 1.5 {
		t.Fatalf("bad span event: %v", span)
	}
	inst := doc.TraceEvents[3]
	if inst["ph"] != "i" || inst["ts"].(float64) != 1.8 {
		t.Fatalf("bad instant event: %v", inst)
	}
	args := inst["args"].(map[string]any)
	if args["ok"] != true || args["gain"].(float64) != 1.25 {
		t.Fatalf("bad args: %v", args)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	act := m.Gauge("progopt_peak_active_queries", "peak concurrently active queries")
	lat := m.Summary("progopt_sim_latency_ms", "simulated end-to-end latency")
	act.Set(4)
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		lat.Observe(v)
	}
	if got := lat.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := lat.Quantile(0.99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	var out bytes.Buffer
	if err := m.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE progopt_peak_active_queries gauge",
		"progopt_peak_active_queries 4",
		"# TYPE progopt_sim_latency_ms summary",
		`progopt_sim_latency_ms{quantile="0.5"} 5`,
		`progopt_sim_latency_ms{quantile="0.95"} 10`,
		"progopt_sim_latency_ms_sum 55",
		"progopt_sim_latency_ms_count 10",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Same name returns the same instrument.
	if m.Gauge("progopt_peak_active_queries", "").Value() != 4 {
		t.Fatal("re-registration must return the existing instrument")
	}
}
