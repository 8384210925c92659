package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
)

// goldenRecorder records one event of every shape the exporter has: each Arg
// kind, an instant, a span, a zero-length span, names that need escaping, and
// a track that dropped events. ("other" was a uint32 when Arg held an
// interface; the exporter's fallback for unlisted types rendered it as the
// string it is now.)
func goldenRecorder() *Recorder {
	r := New()
	core := r.NewTrack("core 0")
	opt := r.NewTrack(`optimizer "q<1>" & co`)
	core.Span("vector", 1000, 2500, Int("rows", 512), String("note", `quoted "name"`))
	core.Span("empty", 2500, 2500)
	core.Instant("tier-fetch", 1234567, Int("block", 7), Uint64("bytes", 1<<40), Uint64("stall", 0))
	opt.Instant("reorder", 1800,
		Ints("order", []int{2, 0, 1}), Ints("none", []int{}), Float64s("est_sels", []float64{0.1, 0.25, 1e-9, 1e21}),
		Bool("ok", true), Float64("gain", 1.25), Int64("delta", -3), Float64("neg", math.Copysign(0, -1)),
		String("impl", "branch-free"), String("path", "a\\b\tc\u2028d"), String("other", "9"))
	opt.Instant("plan-final", 18446744073709551615, Uint64("converged_at", math.MaxUint64))
	r.SetMaxEventsPerTrack(2)
	tiny := r.NewTrack("tiny")
	for i := 0; i < 5; i++ {
		tiny.Span("e", uint64(i)*10, uint64(i)*10+5)
	}
	return r
}

// TestWriteChromeGolden compares the export byte for byte with a committed
// file (written by the fmt/encoding-json exporter this one replaced), so a
// consistent change of bytes cannot hide behind run-versus-run identity.
func TestWriteChromeGolden(t *testing.T) {
	var out bytes.Buffer
	if err := goldenRecorder().WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/golden_chrome.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("export differs from %s:\n%s", path, out.Bytes())
	}
	var doc any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Errorf("golden export is not valid JSON: %v", err)
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the string fast path, and its
// decision when to leave it, against json.Marshal.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "vector", "core 12", "l_shipdate<=cut(0.15)", "a b~{}[]:,/'",
		`quoted "name"`, `back\slash`, "<tag>", "a&b", "tab\there", "nl\n", "nul\x00", "del\x7f",
		"caf\u00e9", "line\u2028sep", "para\u2029sep", "bad\xffutf8", "\xc3", "日本語",
	}
	for c := 0; c < 256; c++ {
		cases = append(cases, "x"+string([]byte{byte(c)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("prefix:"), s); string(got) != "prefix:"+string(want) {
			t.Errorf("%q: %s, json.Marshal gives %s", s, got[len("prefix:"):], want)
		}
	}
}

func TestAppendTsMatchesSprintf(t *testing.T) {
	for _, c := range []uint64{0, 1, 9, 10, 99, 100, 999, 1000, 1001, 1010, 1100, 123456789, 1 << 53, 1<<53 + 1, math.MaxUint64} {
		want := fmt.Sprintf("%d.%03d", c/1000, c%1000)
		if got := string(appendTs(nil, c)); got != want {
			t.Errorf("appendTs(%d) = %s, want %s", c, got, want)
		}
	}
}

// TestNonFiniteFloatsStayLoadable: NaN and the infinities have no JSON
// number form; they are exported as strings, alone and inside a slice, and
// finite values keep their shortest round-trip form.
func TestNonFiniteFloatsStayLoadable(t *testing.T) {
	r := New()
	tr := r.NewTrack("optimizer")
	tr.Instant("estimate", 10,
		Float64("cost", math.Inf(1)), Float64("low", math.Inf(-1)), Float64("nan", math.NaN()), Float64("fine", 0.1),
		Float64s("sels", []float64{0.5, math.NaN(), math.Inf(1)}))
	var out bytes.Buffer
	if err := r.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export with non-finite args is not JSON: %v\n%s", err, out.Bytes())
	}
	args := doc.TraceEvents[1].Args
	if args["cost"] != "+Inf" || args["low"] != "-Inf" || args["nan"] != "NaN" || args["fine"] != 0.1 {
		t.Errorf("args = %v", args)
	}
	if sels := args["sels"].([]any); sels[0] != 0.5 || sels[1] != "NaN" || sels[2] != "+Inf" {
		t.Errorf("sels = %v", sels)
	}
}

// TestWriteChromeSteadyStateAllocs: the recorder keeps its export buffer, so
// after the first export (and across Reset) an export allocates a constant
// number of times, not once per event.
func TestWriteChromeSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{100, 10000} {
		r := New()
		core, opt := r.NewTrack("core 0"), r.NewTrack("optimizer")
		fill := func() {
			for i := 0; i < n; i++ {
				core.Span("vector", uint64(i)*1000, uint64(i)*1000+750, Int("rows", 1024), String("impl", "branching"))
				if i%10 == 0 {
					opt.Instant("sample", uint64(i)*1000, Float64s("est_sels", []float64{0.5, 0.25}), Ints("order", []int{1, 0}))
				}
			}
		}
		fill()
		if err := r.WriteChrome(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.Reset()
		fill()
		allocs := testing.AllocsPerRun(3, func() {
			if err := r.WriteChrome(io.Discard); err != nil {
				t.Error(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%d events: second export allocates %.0f times, want O(1)", n, allocs)
		}
	}
}
