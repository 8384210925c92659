package main

import (
	"strings"
	"testing"
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
