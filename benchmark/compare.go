package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareDirs compares the reports of two output directories, A the parent
// and B the change. For every workload and end-to-end metric it prints B's
// relative difference against the metric's bound; metrics that must repeat
// bit for bit (simulated values and exact layer counts) are flagged when
// they differ at all. It reports whether everything is within bounds.
//
// Exactness only holds between runs of one seed and scale; runs that differ
// in either are compared on their bounds alone.
func compareDirs(a, b string) (bool, error) {
	within := true
	compared := 0
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			ra, errA := readReport(outPath(a, w, reportSuffix(trace)))
			rb, errB := readReport(outPath(b, w, reportSuffix(trace)))
			if errors.Is(errA, fs.ErrNotExist) && errors.Is(errB, fs.ErrNotExist) {
				continue
			}
			if errA != nil {
				return false, errA
			}
			if errB != nil {
				return false, errB
			}
			compared++
			sameInputs := ra.Seed == rb.Seed && ra.Scale == rb.Scale
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				va, vb := ra.Metrics[d.name].Value, rb.Metrics[d.name].Value
				worse := ratio(vb-va, math.Abs(va))
				if d.better == "higher" {
					worse = -worse
				}
				exactDiffers := d.exact() && sameInputs && math.Float64bits(va) != math.Float64bits(vb)
				if trace && !exactDiffers {
					continue // per-layer metrics carry no bound; only exactness is held
				}
				verdict := ""
				switch {
				case exactDiffers:
					verdict, within = "EXACT METRIC DIFFERS", false
				case worse > d.bound:
					verdict, within = "OUTSIDE BOUND", false
				}
				fmt.Printf("%s %s A=%v B=%v worse_by=%+.4f bound=%v %s\n", w, d.name, va, vb, worse, d.bound, verdict)
			}
			if ra.Failed > 0 || rb.Failed > 0 {
				fmt.Printf("%s failed A=%d B=%d FAILURES\n", w, ra.Failed, rb.Failed)
				within = false
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no reports found in %s and %s", a, b)
	}
	return within, nil
}
