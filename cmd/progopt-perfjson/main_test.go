package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHostParallelGate: a host-parallel row slower at -cpu 4 than at -cpu 1
// fails (the committed baseline before lookahead scheduling had exactly that
// shape: 6.8 ms vs 4.9 ms), one that is faster or within the noise allowance
// passes, and benchmarks outside earnedRows are not judged.
func TestHostParallelGate(t *testing.T) {
	row := func(name string, cpu int, ns float64) Bench { return Bench{Name: name, Cpu: cpu, NsPerOp: ns} }
	for _, c := range []struct {
		name    string
		benches []Bench
		ok      bool
	}{
		{"parallel row earns its threads", []Bench{
			row("BenchmarkRunParallel", 1, 4.0e6), row("BenchmarkRunParallel", 4, 2.3e6),
			row("BenchmarkRunJoinGraph4", 1, 35e6), row("BenchmarkRunJoinGraph4", 4, 36e6),
		}, true},
		{"parallel row slower with more threads", []Bench{
			row("BenchmarkRunParallel", 1, 4.9e6), row("BenchmarkRunParallel", 4, 6.8e6),
		}, false},
		{"single-core row pays for idle threads", []Bench{
			row("BenchmarkRunJoinGraph4", 1, 35e6), row("BenchmarkRunJoinGraph4", 4, 42e6),
		}, false},
		{"other benchmarks are not judged", []Bench{
			row("BenchmarkRunTopK", 1, 9e6), row("BenchmarkRunTopK", 4, 12e6),
		}, true},
	} {
		ok, table := hostParallelGate(Artifact{Benches: c.benches}, 10)
		if ok != c.ok {
			t.Errorf("%s: gate passed=%v, want %v\n%s", c.name, ok, c.ok, table)
		}
		if !c.ok && !strings.Contains(table, "FAIL") {
			t.Errorf("%s: failing table names no row:\n%s", c.name, table)
		}
	}
}

// TestAllocationGate: a row fails when its allocs/op exceed the baseline's by
// more than 10 % and more than 16 objects — both, so that neither one extra
// object on a single-digit row nor 5 % on a large one trips it — and the
// committed baseline passes against itself.
func TestAllocationGate(t *testing.T) {
	row := func(allocs float64) Artifact {
		return Artifact{Benches: []Bench{{Name: "BenchmarkServeConcurrent4", Cpu: 1, NsPerOp: 27e6, AllocsPerOp: &allocs,
			Metrics: map[string]float64{"sim_cycles": 887927}}}}
	}
	for _, c := range []struct {
		name     string
		old, cur float64
		ok       bool
	}{
		{"unchanged", 770, 770, true},
		{"+20 % and +154 objects", 770, 924, false},
		{"+5 % of a large row", 59036, 61988, true},
		{"+11 % of a large row", 59036, 65530, false},
		{"doubled but within 16 objects", 6, 12, true},
		{"+17 objects on a small row", 6, 23, false},
		{"fewer", 59036, 770, true},
	} {
		ok, table := compare(row(c.old), row(c.cur), 10)
		if ok != c.ok {
			t.Errorf("%s: gate passed=%v, want %v\n%s", c.name, ok, c.ok, table)
		}
		if !c.ok && !strings.Contains(table, "REGRESSED") {
			t.Errorf("%s: failing table does not mark the allocation column:\n%s", c.name, table)
		}
	}
	base := loadArtifact("../../BENCH_baseline.json")
	for _, b := range base.Benches {
		if b.AllocsPerOp == nil {
			t.Errorf("baseline row %s cpu %d was not recorded with -benchmem", b.Name, b.Cpu)
		}
	}
	if ok, table := compare(base, base, 10); !ok {
		t.Errorf("committed baseline fails against itself:\n%s", table)
	}
}

// TestAppendHistory: every run adds exactly one parseable line, earlier lines
// stay, and raw result text is left to the per-commit artifact.
func TestAppendHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	allocs := 770.0
	art := Artifact{Schema: Schema, Benches: []Bench{{Name: "BenchmarkServeConcurrent4", Cpu: 1, NsPerOp: 27e6,
		AllocsPerOp: &allocs, Raw: "BenchmarkServeConcurrent4 3 27000000 ns/op"}}}
	when := time.Date(2026, 9, 29, 12, 0, 0, 0, time.UTC)
	for _, commit := range []string{"aaa", "bbb"} {
		if err := appendHistory(path, commit, when, art); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines after two runs:\n%s", len(lines), data)
	}
	for i, commit := range []string{"aaa", "bbb"} {
		var e historyEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if e.Commit != commit || e.Date != "2026-09-29T12:00:00Z" || e.Schema != Schema ||
			len(e.Benches) != 1 || *e.Benches[0].AllocsPerOp != 770 || e.Benches[0].Raw != "" {
			t.Errorf("line %d = %+v", i, e)
		}
	}
	if art.Benches[0].Raw == "" {
		t.Error("appendHistory cleared the artifact's own raw line")
	}
}
