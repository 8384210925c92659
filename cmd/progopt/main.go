// Command progopt regenerates the paper's figures as tables on stdout.
//
// Usage:
//
//	progopt -fig fig11            # one figure, full scale
//	progopt -fig all -quick       # every figure, reduced scale
//	progopt -fig fig14 -csv       # CSV instead of the ASCII table
//	progopt -fig fig14 -trace out.json  # also record a Chrome/Perfetto trace
//	progopt -list                 # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"progopt/internal/experiments"
	"progopt/internal/trace"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment id (fig01..fig16) or 'all'")
		quick   = flag.Bool("quick", false, "reduced data sizes and sweeps")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		seed    = flag.Int64("seed", 1, "data generation seed")
		vector  = flag.Int("vector", 0, "vector size in tuples (0 = default)")
		perms   = flag.Int("perms", 0, "cap on PEO permutations in sweeps (0 = experiment default)")
		workers = flag.Int("workers", 1, "simulated cores per measurement (morsel-driven when > 1)")
		trc     = flag.String("trace", "", "write a Chrome trace-event JSON of every measurement to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		Quick:      *quick,
		Seed:       *seed,
		VectorSize: *vector,
		PermSample: *perms,
		Workers:    *workers,
	}
	if *trc != "" {
		cfg.Trace = trace.New()
	}

	var exps []experiments.Experiment
	if *fig == "all" {
		exps = experiments.All()
	} else {
		e, err := experiments.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []experiments.Experiment{e}
	}

	for _, e := range exps {
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", e.ID, e.Title)
		reps, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, r := range reps {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", r.ID, r.Title, r.CSV())
			} else {
				fmt.Println(r.String())
			}
		}
	}

	if *trc != "" {
		f, err := os.Create(*trc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cfg.Trace.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events on %d tracks -> %s\n",
			cfg.Trace.Events(), cfg.Trace.NumTracks(), *trc)
	}
}
