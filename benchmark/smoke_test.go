package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the harness's
// metric tables in step: same workloads, and the same metrics with the same
// unit, direction and bound, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q (unit %q) is outside the contract's alphabet", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("metric %s: better is %q", n, better)
		}
		if seen[n] {
			t.Errorf("metric %s is declared twice", n)
		}
		seen[n] = true
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		checkName(m.Name, m.Unit, m.Better)
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// TestSmoke runs every workload at tiny scale, measured and traced (spans,
// profile, flipped-trace phase, probes), twice, and asserts that nothing
// fails, that every run emits exactly the metrics BENCHMARK.json declares for
// its mode, and that the two runs agree bit for bit on every exact metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var prev *report
			for run := 0; run < 2; run++ {
				rep, err := runWorkload(runConfig{workload: w, seed: 7, seconds: 0.05, trace: trace, scale: "tiny"})
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, trace, err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("%s trace=%v: %d of %d failed: %v", w, trace, rep.Failed, rep.Attempted, rep.Failures)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.name]
					if !ok {
						t.Errorf("%s trace=%v: %s is missing", w, trace, d.name)
						continue
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s %s = %v", w, d.name, v.Value)
					}
					if !trace && v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
					}
					if prev != nil && d.exact() && math.Float64bits(prev.Metrics[d.name].Value) != math.Float64bits(v.Value) {
						t.Errorf("%s: exact metric %s was %v, then %v", w, d.name, prev.Metrics[d.name].Value, v.Value)
					}
				}
				prev = rep
			}
		}
	}
}

func TestPprofLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"progopt/internal/hw/cache.(*Hierarchy).LoadRun": "hw.cache",
		"progopt/internal/hw/pmu.Sample.Sub":             "hw.cpu",
		"progopt/internal/costmodel/markov.Chain.Rates":  "costmodel",
		"progopt/internal/exec.(*Predicate).EvalBatch":   "exec",
		"progopt.compileSum.func1":                       "progopt",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"math.Log":                                       "other",
		"main.(*execInstance).iterate":                   "other",
		"":                                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := &spanRec{spans: []span{
		{Name: "iteration", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "wait", StartNs: 10, EndNs: 50, Parent: 0},
		{Name: "wait", StartNs: 30, EndNs: 70, Parent: 0}, // overlaps the first
	}}
	tot := sp.totals()
	if tot[0].Name != "iteration" || tot[0].SelfNs != 40 {
		t.Errorf("iteration self time = %+v, want 40 (children cover 10..70 once)", tot[0])
	}
	if tot[1].Count != 2 || tot[1].TotalNs != 80 {
		t.Errorf("wait totals = %+v", tot[1])
	}
}

// TestOracleDetectsWrongAnswers makes sure a check can fail.
func TestOracleDetectsWrongAnswers(t *testing.T) {
	inst, err := setupWorkload("scan_shift", scales["tiny"], 7, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	obs, err := inst.iterate(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	od, err := newOracleData(scales["tiny"].rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.specs()[0]
	a, err := od.answer(s)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.queries[0].res
	if msg := a.check(s, r); msg != "" {
		t.Fatalf("correct answer rejected: %s", msg)
	}
	r.Sum *= 1 + 1e-6
	if a.check(s, r) == "" {
		t.Error("a sum off by 1e-6 relative was accepted")
	}
	r = obs.queries[0].res
	r.Qualifying++
	if a.check(s, r) == "" {
		t.Error("a cardinality off by one was accepted")
	}
}
