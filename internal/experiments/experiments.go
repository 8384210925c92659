// Package experiments regenerates every measured figure of the paper's
// evaluation (§5) plus the model-validation figures of §3. Each experiment
// returns one or more Reports — printable tables whose rows are the series
// the paper plots. EXPERIMENTS.md records the paper-vs-measured comparison
// for each.
package experiments

import (
	"fmt"
	"strings"

	"progopt/internal/trace"
)

// Config scales an experiment run. Zero values take defaults; Quick shrinks
// sweeps so the full suite runs in seconds (used by tests).
type Config struct {
	// Lineitems is the driving-table row count (default 600*VectorSize,
	// mirroring the paper's 600 vectors).
	Lineitems int
	// VectorSize is tuples per vector (default 2048; the paper uses 1M on
	// hardware 16x larger and 500x faster than the simulator).
	VectorSize int
	// Seed drives all data generation.
	Seed int64
	// PermSample caps how many of the 120 PEOs the permutation sweeps run
	// (0 = all). Quick mode defaults it to 12.
	PermSample int
	// Quick shrinks data and sweep resolution for fast CI runs.
	Quick bool
	// Workers is the number of simulated cores measurements run on (default
	// 1 = serial; >1 uses the morsel-driven scheduler and reports makespans).
	Workers int
	// Trace, when non-nil, records every rig measurement into this recorder:
	// each rig registers its own uniquely named core and optimizer tracks, so
	// one recorder can hold a whole experiment's sweep for Chrome export.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.VectorSize <= 0 {
		if c.Quick {
			c.VectorSize = 512
		} else {
			c.VectorSize = 2048
		}
	}
	if c.Lineitems <= 0 {
		if c.Quick {
			c.Lineitems = 60 * c.VectorSize
		} else {
			c.Lineitems = 600 * c.VectorSize
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PermSample == 0 && c.Quick {
		c.PermSample = 8
	}
	return c
}

// Report is one printable table.
type Report struct {
	// ID is the figure identifier, e.g. "fig11".
	ID string
	// Title describes the content.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows are the data cells, pre-formatted.
	Rows [][]string
	// Notes document scaling or substitutions relevant to reading the table.
	Notes []string
}

// String renders the report as an aligned ASCII table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (cells are assumed not
// to contain commas; all generated cells are numeric or simple labels).
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment couples a figure id with its runner.
type Experiment struct {
	// ID is the figure identifier ("fig01" ... "fig16").
	ID string
	// Title is the paper's figure caption, abbreviated.
	Title string
	// Run executes the experiment.
	Run func(Config) ([]*Report, error)
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{"fig01", "Best v. worst plan cost for TPC-H Q6", Fig01},
		{"fig02", "Counter overview over selectivity", Fig02},
		{"fig03", "Markov chain state counts v. simulated Ivy Bridge", Fig03},
		{"fig04", "Two-predicate branch mispredictions: measured/predicted", Fig04},
		{"fig06", "Branch counters across microarchitectures", Fig06},
		{"fig07", "Search space restriction example", Fig07},
		{"fig08", "Two-predicate counter predictions", Fig08},
		{"fig09", "Start point selection sequence", Fig09},
		{"fig11", "TPC-H common case: 120 PEOs, baseline v. progressive", Fig11},
		{"fig12", "Q6 with varying shipdate selectivity", Fig12},
		{"fig13", "Q6 on sorted/clustered/random data sets", Fig13},
		{"fig14", "Sortedness and expensive predicates", Fig14},
		{"fig15", "Foreign-key join order", Fig15},
		{"fig16", "Overhead: enumerator v. performance counters", Fig16},
		{"ext-enum", "Extension: enumerator-driven v. counter-driven optimizer", ExtEnum},
		{"ext-micro", "Extension: micro-adaptive branching v. branch-free choice", ExtMicro},
		{"ext-static", "Extension: static histogram optimizer v. progressive", ExtStatic},
		{"ext-parallel", "Extension: morsel-driven multi-core scaling", ExtParallel},
		{"ext-groupby", "Extension: morsel-driven grouped aggregation", ExtGroupBy},
		{"ext-serve", "Extension: workload service — pool size, latency, feedback cache", ExtServe},
		{"ext-topk", "Extension: morsel-parallel Top-K/OrderBy operator", ExtTopK},
		{"ext-storage", "Extension: stored PCOL v2 tables — budget sweep, compression, packed scans", ExtStorage},
		{"ext-trace", "Extension: traced convergence timeline — reorder events and PMU series v. simulated cycles", ExtTrace},
		{"ext-joins", "Extension: join-graph ordering — greedy v. cost model v. PMU-progressive (2-5 tables)", ExtJoins},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// samplePerms picks up to k evenly spaced permutations (all when k <= 0 or
// k >= len(perms)).
func samplePerms(perms [][]int, k int) [][]int {
	if k <= 0 || k >= len(perms) {
		return perms
	}
	out := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, perms[i*len(perms)/k])
	}
	return out
}

// fmtF formats a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// fmtPerm renders a permutation as "3-1-0-2".
func fmtPerm(p []int) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "-")
}
