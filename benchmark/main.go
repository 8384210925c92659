// Command benchmark is the benchmark of record for progopt: four workloads,
// end-to-end metrics on two clocks (host time of the simulator, simulated
// time of the modelled machine), and a per-layer ladder measured from outside
// the system. See README.md.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload scan_shift --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --out benchmark/out/a
//	bash benchmark/run.sh --compare benchmark/out/a,benchmark/out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func outPath(dir, workload, suffix string) string {
	return filepath.Join(dir, workload+suffix)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// reportSuffix names a run's report file: end-to-end and per-layer runs of
// one workload sit side by side in one output directory.
func reportSuffix(trace bool) string {
	if trace {
		return ".layers.json"
	}
	return ".json"
}

// printReport prints every metric as "workload metric value unit kind" and,
// as the last line, the one JSON object the driver reads.
func printReport(rep *report) error {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		kind := "end_to_end/" + d.src
		if rep.Trace {
			kind = "per_layer/" + d.src
		}
		fmt.Printf("%s %s %v %s %s\n", rep.Workload, d.name, rep.Metrics[d.name].Value, d.unit, kind)
	}
	fmt.Printf("%s failed_share %v ratio end_to_end/count\n", rep.Workload, float64(rep.Failed)/float64(rep.Attempted))
	for _, f := range rep.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll re-executes this binary once per workload and trace mode, so that
// memory metrics belong to one workload each.
func runAll(rc runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(rc.seed),
				"-seconds", fmt.Sprint(rc.seconds), "-trace", trace, "-scale", rc.scale, "-out", rc.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %s: %v\n", w, trace, err)
				failed = true
			}
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

func main() {
	var rc runConfig
	var trace int
	var compare string
	flag.StringVar(&rc.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&rc.seed, "seed", 7, "seed of the data and the arrival trace")
	flag.Float64Var(&rc.seconds, "seconds", 20, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics (spans, profile, probes)")
	flag.StringVar(&rc.scale, "scale", "full", "data sizes: full or tiny")
	flag.StringVar(&rc.out, "out", "", "directory for <workload>.json, .layers.json, .spans.json and .pprof (none when empty)")
	flag.StringVar(&compare, "compare", "", "A,B: compare two output directories instead of running")
	flag.Parse()
	rc.trace = trace != 0

	if compare != "" {
		a, b, ok := strings.Cut(compare, ",")
		if !ok {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two directories separated by a comma")
			os.Exit(2)
		}
		within, err := compareDirs(a, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !within {
			os.Exit(1)
		}
		return
	}
	if rc.workload == "all" {
		if err := runAll(rc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if rc.out != "" {
		if err := os.MkdirAll(rc.out, 0o755); err == nil {
			err = writeJSON(outPath(rc.out, rc.workload, reportSuffix(rc.trace)), rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if err := printReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}
