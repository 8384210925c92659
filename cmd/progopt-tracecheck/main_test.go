package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"progopt/internal/trace"
)

// TestCheckAcceptsNonFiniteArgs: an estimate's cost is +Inf until a start
// succeeds and a ratio can be NaN; the exporter must still produce a file
// this checker (and so Perfetto's JSON parser) loads.
func TestCheckAcceptsNonFiniteArgs(t *testing.T) {
	r := trace.New()
	opt := r.NewTrack("optimizer")
	opt.Instant("reorder", 100,
		trace.Float64("cost", math.Inf(1)), trace.Float64("gain", math.NaN()),
		trace.Float64s("est_sels", []float64{0.5, math.Inf(-1)}))
	opt.Span("block", 100, 250, trace.Float64("cost_per_vec", 12.5))
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := check(path, 2, "reorder"); err != nil {
		t.Errorf("trace with non-finite float args rejected: %v", err)
	}
}
