// Command peoexplore enumerates the predicate evaluation orders of TPC-H Q6
// on a generated data set, measures each on the simulated core, and shows
// what the progressive optimizer would infer from one sampled vector: the
// four counter values, the restricted search space, and the estimated
// per-predicate selectivities.
//
// Usage:
//
//	peoexplore -rows 200000 -seed 1 -ordering random
package main

import (
	"flag"
	"fmt"
	"os"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

func main() {
	var (
		rows     = flag.Int("rows", 200_000, "lineitem row count")
		seed     = flag.Int64("seed", 1, "generation seed")
		ordering = flag.String("ordering", "random", "lineitem order: natural|sorted|clustered|random")
		vector   = flag.Int("vector", 2048, "vector size in tuples")
	)
	flag.Parse()

	d, err := tpch.Generate(tpch.Config{Lineitems: *rows, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	switch *ordering {
	case "natural":
	case "sorted":
		d = d.ReorderLineitem(tpch.OrderingShipdateSorted, *seed+1)
	case "clustered":
		d = d.ReorderLineitem(tpch.OrderingClusteredMonth, *seed+1)
	case "random":
		d = d.ReorderLineitem(tpch.OrderingRandom, *seed+1)
	default:
		fatal(fmt.Errorf("unknown ordering %q", *ordering))
	}

	par, err := exec.NewParallel(cpu.ScaledXeon(), 1, *vector)
	if err != nil {
		fatal(err)
	}
	run := core.NewRun(par)
	q, err := exec.Q6(d)
	if err != nil {
		fatal(err)
	}
	if err := par.BindQuery(q); err != nil {
		fatal(err)
	}

	// True standalone selectivities, for reference.
	fmt.Println("predicates (true standalone selectivity):")
	for i, op := range q.Ops {
		p := op.(*exec.Predicate)
		fmt.Printf("  [%d] %-18s sel=%.4f\n", i, p.Name(), p.TrueSelectivity())
	}

	// Measure every PEO.
	fmt.Println("\nall 120 predicate evaluation orders (simulated msec):")
	type entry struct {
		perm []int
		ms   float64
	}
	var entries []entry
	for _, perm := range exec.Permutations(len(q.Ops)) {
		qo, err := q.WithOrder(perm)
		if err != nil {
			fatal(err)
		}
		if err := run.Begin(core.Spec{Query: qo}); err != nil {
			fatal(err)
		}
		if err := run.Drive(); err != nil {
			fatal(err)
		}
		entries = append(entries, entry{perm, run.Millis})
	}
	best, worst := 0, 0
	for i, e := range entries {
		if e.ms < entries[best].ms {
			best = i
		}
		if e.ms > entries[worst].ms {
			worst = i
		}
	}
	fmt.Printf("  best : %v  %.2f ms\n", entries[best].perm, entries[best].ms)
	fmt.Printf("  worst: %v  %.2f ms  (%.2fx)\n",
		entries[worst].perm, entries[worst].ms, entries[worst].ms/entries[best].ms)

	// Sample one vector of the worst order and run the estimator on it.
	qo, err := q.WithOrder(entries[worst].perm)
	if err != nil {
		fatal(err)
	}
	par.Cold()
	if err := run.Begin(core.Spec{Query: qo, Quantum: 1}); err != nil {
		fatal(err)
	}
	if _, err := run.Step([]uint64{0}); err != nil {
		fatal(err)
	}
	delta := run.Counters
	sample := core.SampleFromPMU(delta, *vector)
	fmt.Printf("\nsampled counters for one vector of the worst PEO:\n")
	fmt.Printf("  branches not taken : %.0f\n", sample.BNT)
	fmt.Printf("  mispredicted taken : %.0f\n", sample.MPTaken)
	fmt.Printf("  mispred. not taken : %.0f\n", sample.MPNotTaken)
	fmt.Printf("  L3 accesses        : %.0f\n", sample.L3)
	fmt.Printf("  derived output     : %.0f of %d tuples\n", sample.Qualifying, *vector)

	bounds, err := core.Restrict(len(q.Ops), sample.N, sample.Qualifying, sample.BNT)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nsearch space restriction (accesses per predicate):")
	for i := range bounds.UpperBNT {
		fmt.Printf("  p%d: [%.0f, %.0f]\n", i+1, bounds.LowerBNT[i], bounds.UpperBNT[i])
	}

	widths := make([]int, len(qo.Ops))
	for i, op := range qo.Ops {
		widths[i] = op.Width()
	}
	est, err := core.EstimateSelectivities(sample, core.EstimatorConfig{
		Widths:    widths,
		AggWidths: []int{8, 8},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nestimated per-predicate selectivities (worst PEO order):")
	for i, s := range est.Sels {
		fmt.Printf("  %-18s est=%.4f\n", qo.Ops[i].Name(), s)
	}
	order := core.AscendingOrder(est.Sels)
	fmt.Printf("\nrecommended reorder (positions in worst PEO): %v\n", order)
	fmt.Printf("branch identity check: 2n - taken = %d (qualifying)\n",
		2*int64(*vector)-int64(delta.Get(pmu.BrTaken)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peoexplore:", err)
	os.Exit(1)
}
