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
// kind (the fallback for an unlisted type included), an instant, a span, a
// zero-length span, names that need escaping, and a track that dropped
// events.
func goldenRecorder() *Recorder {
	r := New()
	core := r.NewTrack("core 0")
	opt := r.NewTrack(`optimizer "q<1>" & co`)
	core.Span("vector", 1000, 2500, A("rows", 512), A("note", `quoted "name"`))
	core.Span("empty", 2500, 2500)
	core.Instant("tier-fetch", 1234567, A("block", 7), A("bytes", uint64(1)<<40), A("stall", uint64(0)))
	opt.Instant("reorder", 1800,
		A("order", []int{2, 0, 1}), A("none", []int{}), A("est_sels", []float64{0.1, 0.25, 1e-9, 1e21}),
		A("ok", true), A("gain", 1.25), A("delta", int64(-3)), A("neg", math.Copysign(0, -1)),
		A("impl", "branch-free"), A("path", "a\\b\tc\u2028d"), A("other", uint32(9)))
	opt.Instant("plan-final", 18446744073709551615, A("converged_at", uint64(math.MaxUint64)))
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
		A("cost", math.Inf(1)), A("low", math.Inf(-1)), A("nan", math.NaN()), A("fine", 0.1),
		A("sels", []float64{0.5, math.NaN(), math.Inf(1)}))
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
				core.Span("vector", uint64(i)*1000, uint64(i)*1000+750, A("rows", 1024), A("impl", "branching"))
				if i%10 == 0 {
					opt.Instant("sample", uint64(i)*1000, A("est_sels", []float64{0.5, 0.25}), A("order", []int{1, 0}))
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
