// Command progopt-perfjson converts `go test -bench` output on stdin into
// the BENCH_perf.json artifact CI uploads per commit — the host-performance
// trajectory of the simulator's hot paths (schema progopt-perf/v6).
//
// Usage:
//
//	go test -run xxx -bench 'BenchmarkRun(TupleAtATime|Batch|Parallel|ParallelTraced|TopK|GroupBy|JoinGraph[24]|JoinGraph4Progressive)$|BenchmarkScan(Stored|Compressed)$|BenchmarkServeConcurrent[48]$' \
//	    -benchmem -benchtime 3x -count 3 -cpu 1,4 . \
//	    | go run ./cmd/progopt-perfjson -out BENCH_perf.json \
//	        [-baseline BENCH_baseline.json -max-regress 10 -summary sum.md] \
//	        [-history BENCH_history.jsonl -commit $GITHUB_SHA]
//
// Result lines repeating the same benchmark (from -count) are aggregated to
// one row per (name, cpu) holding the median of every numeric column — the
// artifact records medians, not single samples. The -cpu GOMAXPROCS suffix
// becomes the row's cpu field, so `-cpu 1,4` yields two rows per benchmark.
//
// With -baseline, the freshly built artifact is compared row-by-row against
// a previously committed one: the run fails (exit 1) when any tracked
// median ns/op regresses by more than -max-regress percent, or when any
// sim_cycles metric differs at all — the simulated work is deterministic,
// so host-independent counters must match bit for bit while wall-clock gets
// a noise allowance — or when a row's median allocs/op exceeds the baseline's
// by more than 10 % and by more than 16 objects: allocation counts repeat
// almost exactly, so this gate is much sharper than the wall-clock one and
// independent of the host. The comparison table (benchstat-style old/new/delta)
// goes to stdout and, with -summary, to a markdown file for the CI job
// summary. The same gate checks the new artifact against itself: a
// host-parallel row (see earnedRows) whose -cpu N median is slower than its
// -cpu 1 median fails — host parallelism has to pay for itself or go.
//
// With -history, the run is appended as one JSON line (commit, date, schema,
// rows without their raw text) to an append-only file: the trajectory is a
// file, not git archaeology. CI's main-branch job commits it.
//
// Only benchmark result lines are consumed; everything else (goos/pkg
// headers, PASS/ok trailers) is ignored, and a raw line is preserved in
// the artifact for forensics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema is the artifact format identifier.
const Schema = "progopt-perf/v6"

// Bench is one benchmark result row (the median across -count repeats).
type Bench struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Cpu is the GOMAXPROCS the row ran at (the -N suffix; 1 when absent).
	Cpu int `json:"cpu"`
	// Iterations is b.N of the median sample.
	Iterations int64 `json:"iterations"`
	// NsPerOp is host wall-clock per operation (median across samples).
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics carries every custom b.ReportMetric unit (e.g. sim_cycles).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples is how many result lines were aggregated (omitted when 1).
	Samples int `json:"samples,omitempty"`
	// Raw is one verbatim result line of the group (omitted in history lines).
	Raw string `json:"raw,omitempty"`
}

// Artifact is the whole BENCH_perf.json document.
type Artifact struct {
	Schema  string  `json:"schema"`
	Benches []Bench `json:"benches"`
}

func main() {
	out := flag.String("out", "BENCH_perf.json", "output path")
	baseline := flag.String("baseline", "", "baseline artifact to compare against (empty = no gate)")
	maxRegress := flag.Float64("max-regress", 10, "max tolerated median ns/op regression, percent")
	summary := flag.String("summary", "", "write the comparison table as markdown to this path")
	history := flag.String("history", "", "append this run as one JSON line to this file")
	commit := flag.String("commit", "", "commit id recorded in the -history line")
	flag.Parse()

	art := Artifact{Schema: Schema}
	var samples []Bench
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if b, ok := parseBenchLine(sc.Text()); ok {
			samples = append(samples, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	art.Benches = aggregate(samples)
	if len(art.Benches) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benches)\n", *out, len(art.Benches))
	if *history != "" {
		if err := appendHistory(*history, *commit, time.Now(), art); err != nil {
			fatal(err)
		}
	}

	if *baseline != "" {
		ok, table := compare(loadArtifact(*baseline), art, *maxRegress)
		earned, earnedTable := hostParallelGate(art, *maxRegress)
		ok = ok && earned
		table += earnedTable
		fmt.Print(table)
		if *summary != "" {
			if err := os.WriteFile(*summary, []byte(table), 0o644); err != nil {
				fatal(err)
			}
		}
		if !ok {
			fatal(fmt.Errorf("performance gate failed (max regression %.0f%%, sim_cycles exact, allocs/op within 10%% or 16, -cpu N no slower than -cpu 1)", *maxRegress))
		}
	}
}

// parseBenchLine decodes one `BenchmarkName  N  v unit  v unit ...` row.
func parseBenchLine(line string) (Bench, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Bench{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	name := fields[0]
	cpu := 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, cpu = name[:i], n // split off the GOMAXPROCS suffix
		}
	}
	b := Bench{Name: name, Cpu: cpu, Iterations: iters, Raw: line}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

// aggregate folds repeated (name, cpu) samples — `-count N` runs — into one
// row holding the median of every numeric column, in first-seen order.
func aggregate(samples []Bench) []Bench {
	type key struct {
		name string
		cpu  int
	}
	groups := map[key][]Bench{}
	var order []key
	for _, s := range samples {
		k := key{s.Name, s.Cpu}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	out := make([]Bench, 0, len(order))
	for _, k := range order {
		g := groups[k]
		b := g[0]
		if len(g) > 1 {
			b.Samples = len(g)
			b.NsPerOp = median(g, func(s Bench) (float64, bool) { return s.NsPerOp, true })
			b.BytesPerOp = medianPtr(g, func(s Bench) *float64 { return s.BytesPerOp })
			b.AllocsPerOp = medianPtr(g, func(s Bench) *float64 { return s.AllocsPerOp })
			units := map[string]bool{}
			for _, s := range g {
				for u := range s.Metrics {
					units[u] = true
				}
			}
			if len(units) > 0 {
				b.Metrics = map[string]float64{}
				for u := range units {
					b.Metrics[u] = median(g, func(s Bench) (float64, bool) { v, ok := s.Metrics[u]; return v, ok })
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// median of a column across samples (lower-middle for even counts, so the
// value always comes from a real sample — sim_cycles stays exact).
func median(g []Bench, col func(Bench) (float64, bool)) float64 {
	var vals []float64
	for _, s := range g {
		if v, ok := col(s); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(len(vals)-1)/2]
}

func medianPtr(g []Bench, col func(Bench) *float64) *float64 {
	any := false
	m := median(g, func(s Bench) (float64, bool) {
		p := col(s)
		if p == nil {
			return 0, false
		}
		any = true
		return *p, true
	})
	if !any {
		return nil
	}
	return ptr(m)
}

// find returns the artifact's row for (name, cpu), or nil.
func (a Artifact) find(name string, cpu int) *Bench {
	for i := range a.Benches {
		if a.Benches[i].Name == name && a.Benches[i].Cpu == cpu {
			return &a.Benches[i]
		}
	}
	return nil
}

// allocsRegressed is the allocation gate: more than 10 % and more than 16
// objects above the baseline. The absolute floor keeps single-digit rows
// (RunBatch allocates once) from failing on one extra object.
func allocsRegressed(old, cur float64) bool {
	return cur > old*1.10 && cur-old > 16
}

// compare gates the new artifact against the baseline: every baseline row
// present in the new artifact must hold its median ns/op within maxRegress
// percent, reproduce sim_cycles exactly, and hold its median allocs/op (see
// allocsRegressed). Returns pass/fail and a benchstat-style markdown table.
func compare(old, cur Artifact, maxRegress float64) (bool, string) {
	ok := true
	var b strings.Builder
	b.WriteString("### Host-performance gate vs baseline\n\n")
	b.WriteString("| benchmark | cpu | old ns/op | new ns/op | delta | allocs/op | sim_cycles | status |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, o := range old.Benches {
		n := cur.find(o.Name, o.Cpu)
		if n == nil {
			ok = false
			fmt.Fprintf(&b, "| %s | %d | %.0f | — | — | — | — | MISSING |\n", o.Name, o.Cpu, o.NsPerOp)
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		cyc := "n/a"
		status := "ok"
		if oc, hasOld := o.Metrics["sim_cycles"]; hasOld {
			if nc, hasNew := n.Metrics["sim_cycles"]; hasNew && nc == oc {
				cyc = "exact"
			} else {
				cyc = fmt.Sprintf("DIVERGED %.0f → %.0f", oc, n.Metrics["sim_cycles"])
				status = "FAIL"
				ok = false
			}
		}
		allocs := "n/a"
		if o.AllocsPerOp != nil && n.AllocsPerOp != nil {
			allocs = fmt.Sprintf("%.0f → %.0f", *o.AllocsPerOp, *n.AllocsPerOp)
			if allocsRegressed(*o.AllocsPerOp, *n.AllocsPerOp) {
				allocs += " REGRESSED"
				status = "FAIL"
				ok = false
			}
		}
		if delta > maxRegress {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "| %s | %d | %.0f | %.0f | %+.1f%% | %s | %s | %s |\n",
			o.Name, o.Cpu, o.NsPerOp, n.NsPerOp, delta, allocs, cyc, status)
	}
	return ok, b.String()
}

// historyEntry is one line of the append-only trajectory file.
type historyEntry struct {
	Commit  string  `json:"commit"`
	Date    string  `json:"date"`
	Schema  string  `json:"schema"`
	Benches []Bench `json:"benches"`
}

// appendHistory appends art as one JSON line to path, creating it if needed.
// Raw result lines are dropped: the trajectory keeps the numbers, the
// per-commit artifact keeps the forensics.
func appendHistory(path, commit string, now time.Time, art Artifact) error {
	e := historyEntry{Commit: commit, Date: now.UTC().Format(time.RFC3339), Schema: art.Schema}
	for _, b := range art.Benches {
		b.Raw = ""
		e.Benches = append(e.Benches, b)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// earnedRows are the benchmarks hostParallelGate holds to "earn it or remove
// it": BenchmarkRunParallel simulates four cores and must turn extra host
// threads into wall-clock; BenchmarkRunJoinGraph4 simulates one and must at
// least not pay for the threads it cannot use.
var earnedRows = []string{"BenchmarkRunParallel", "BenchmarkRunJoinGraph4"}

// hostParallelGate compares, within one artifact, each earned row's -cpu N
// median against its own -cpu 1 median and fails any that is slower. noise is
// the same percentage allowance the baseline comparison gives wall-clock: the
// single-core row ties by construction, and a strict comparison of two noisy
// medians would fail it every other run.
func hostParallelGate(cur Artifact, noise float64) (bool, string) {
	ok := true
	var b strings.Builder
	b.WriteString("\n### Host parallelism: -cpu N vs -cpu 1\n\n")
	b.WriteString("| benchmark | cpu | -cpu 1 ns/op | -cpu N ns/op | speedup | status |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, name := range earnedRows {
		one := cur.find(name, 1)
		if one == nil {
			continue
		}
		for _, n := range cur.Benches {
			if n.Name != name || n.Cpu == 1 {
				continue
			}
			status := "ok"
			if n.NsPerOp > one.NsPerOp*(1+noise/100) {
				status = "FAIL"
				ok = false
			}
			fmt.Fprintf(&b, "| %s | %d | %.0f | %.0f | %.2fx | %s |\n",
				name, n.Cpu, one.NsPerOp, n.NsPerOp, one.NsPerOp/n.NsPerOp, status)
		}
	}
	return ok, b.String()
}

func loadArtifact(path string) Artifact {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if !strings.HasPrefix(a.Schema, "progopt-perf/") {
		fatal(fmt.Errorf("%s: unexpected schema %q", path, a.Schema))
	}
	return a
}

func ptr(v float64) *float64 { return &v }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "progopt-perfjson:", err)
	os.Exit(1)
}
