package progopt

import (
	"fmt"
	"go/build"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// A rule is one structural check on the repository's .go files, read line by
// line as `grep -rn --include='*.go' .` reads them. Most rules keep something
// deleted: no line in scope may match. A rule with want > 0 pins a single
// call site instead: exactly want lines in scope must match.
//
// Paths are slash-separated and relative to the repository root. Every rule
// reads every .go file, benchmark/ and _test.go files included, unless in or
// allow says otherwise; only this file, whose string literals are the
// patterns, and dot-directories, which hold no tracked .go file, are never
// read.
type rule struct {
	pr      int    // the CHANGES.md entry, "PR <pr>", that set the rule
	pattern string // RE2 syntax, matched as grep -E matches
	word    bool   // match whole words only, as grep -w does
	in      string // regexp over paths: the files read; "" reads all
	allow   string // regexp over paths: the files allowed to match
	want    int    // exact number of matching lines; 0 means none
	// deps matches pattern against the import paths of the package in
	// directory in and of every progopt package it reaches through non-test
	// imports, as `go list -deps` lists them, instead of against lines.
	deps bool
	// bad breaks the rule: pattern matches it, it counts at path at and
	// does not count at path ok (this file, when ok is empty).
	bad, at, ok string
}

// oneCallSite is where a single-call-site rule does not count a line: tests,
// the executor that defines the merges and the stepper's own file. The one
// call left is core.Run's, in drive.go.
const oneCallSite = `_test\.go$|^internal/exec/|(^|/)stepper\.go$`

var rules = []rule{
	// One plan surface: a wrapper kept "for compatibility" is a second one.
	{pr: 18, pattern: `Deprecated:`,
		bad: `// Deprecated: use Compile.`, at: "plan.go"},
	// One query driver, one file format: the served segment runners and the
	// v1 reader stay gone.
	{pr: 20, pattern: `segmentFixed|segmentAdaptive|segmentGrouped|readV1Body`,
		bad: `func (s *Server) segmentFixed(q *query) {`, at: "internal/service/server.go"},
	// One plan language, one compile path: Plan.Join and the compiler of
	// plans without edges stay gone; every plan goes through compileGraph.
	{pr: 22, pattern: `stepJoin|compileJoin|compileFilter|hasLegacyJoin`,
		bad: `	if p.hasLegacyJoin() {`, at: "compile.go"},
	// A grouped query is a fixed-order query: no step of its own in the
	// driver, no admission rule of its own in the server.
	{pr: 23, pattern: `stepGrouped|\) grouped\(\) bool`,
		bad: `func (q *query) grouped() bool {`, at: "internal/service/server.go"},
	// One fused compare loop (passWord): the run-length-encoding kernels it
	// replaced stay gone.
	{pr: 24, pattern: `predLoopRLE|keyLoopRLE|filterKeysRLE`,
		bad: `	n = predLoopRLE(col, sel)`, at: "internal/exec/fuse.go"},
	// Workers 1 is a pool of one: the single-engine step body, its clock
	// base, its grouped path and every branch on whether there is a pool
	// stay gone.
	{pr: 27, pattern: `\bstepEngine\b|\bclockBase\b|\bpmu0\b|func \(e \*Engine\) RunGroupBy`,
		bad: `	r.stepEngine(q)`, at: "internal/core/drive_test.go"},
	{pr: 27, pattern: `par [!=]= nil`, allow: `^benchmark/`,
		bad: `	if e.par != nil {`, at: "progopt_test.go", ok: "benchmark/probes.go"},
	// Tuning the paper fixes is a constant, not an option, and declarations
	// nothing called stay gone: the micro-adaptive cost parameters, the
	// simplex and restart knobs, the facade's prefetch and feedback-cache
	// knobs, the empty branch-free scan type, the server's second clock copy
	// and the compiler's own range scan.
	{pr: 28, pattern: `ImplCostParams|DefaultImplCostParams|NoImproveLimit|XTol|InitialStep|DisablePrefetch|FeedbackCacheSize|BranchFreeScan|pubClock|intColumnRange`, word: true,
		bad: `	XTol float64`, at: "internal/core/options.go"},
	// Served waiters park on the server's one condition variable: the
	// per-ticket hand-off and its wake lists stay gone.
	{pr: 29, pattern: `handoffLocked|wakeDoneLocked|wakeAllLocked|doneRound|RunExperiment|ExperimentIDs`, word: true,
		bad: `	s.wakeAllLocked()`, at: "internal/service/server.go"},
	// The library does not link the figure harness; cmd/progopt does.
	{pr: 29, pattern: `^progopt/internal/experiments$`, deps: true, in: ".",
		bad: "progopt/internal/experiments", at: "cmd/progopt"},
	// One execution path per round, and traces keep nothing of the retired
	// barrier scheduler: no serial-round fork, no shared-tier fallback, no
	// wave numbers. The server builds each stored query's tier views, and a
	// zero fingerprint is what turns feedback off.
	{pr: 31, pattern: `sharedStorageLocked|storSeen|SetSerialRounds|setSerialRounds|serialRounds|startsWave|inWave|freshViews|NoFeedback`, word: true,
		bad: `	NoFeedback bool`, at: "serve.go"},
	// Every host hand-off reuses its job (BlockRun.job, which a merge
	// barrier's cores share too): a job allocated per call stays gone.
	{pr: 30, pattern: `&hostJob\{`, allow: `_test\.go$`,
		bad: `	j := &hostJob{fn: fn}`, at: "internal/exec/parallel.go", ok: "internal/exec/parallel_test.go"},
	// Data sets build in linear time: the shipdate orderings count instead of
	// sorting, and the experiments keep neither an on-disk PCOL cache nor a
	// sorted copy for quantiles.
	{pr: 32, pattern: `sort\.SliceStable`, in: `^internal/tpch/`, allow: `_test\.go$`,
		bad: `	sort.SliceStable(perm, less)`, at: "internal/tpch/tpch.go", ok: "internal/tpch/reorder_ref_test.go"},
	{pr: 32, pattern: `progopt-pcol-cache|cachedQuantileInt32`,
		bad: `	dir := filepath.Join(os.TempDir(), "progopt-pcol-cache")`, at: "internal/experiments/rig.go"},
	// Nothing but core.Run calls the stepper, the sort merge or the
	// group-table merge: a second call site would be a second driver.
	{pr: 20, pattern: `exec\.FinalizeSort\(`, allow: oneCallSite, want: 1,
		bad: `	rows := exec.FinalizeSort(states, cores[0])`, at: "serve.go", ok: "internal/core/stepper.go"},
	{pr: 23, pattern: `\.FinalizeGroups\(`, allow: oneCallSite, want: 1,
		bad: `	groups, res := br.FinalizeGroups()`, at: "internal/service/server.go", ok: "internal/exec/hashagg.go"},
	{pr: 20, pattern: `\.AfterBlock\(`, allow: oneCallSite, want: 1,
		bad: `	st.AfterBlock(res)`, at: "internal/service/server.go", ok: "internal/core/drive_test.go"},
	// One definition of cold, cpu.CPU.Cold: a FlushCaches call anywhere else
	// is a second, hand-written one. The counter-reset API stays gone.
	{pr: 21, pattern: `FlushCaches\(\)`, allow: `_test\.go$|^internal/hw/cpu/|^benchmark/`,
		bad: `	c.FlushCaches()`, at: "internal/core/drive.go", ok: "benchmark/probes.go"},
	{pr: 21, pattern: `ResetCounters|ResetStats`,
		bad: `	c.ResetCounters()`, at: "internal/hw/cpu/cpu_test.go"},
	// One set of simulated cores per engine: a pool's core 0 assigns every
	// address, so no spare binding or clock core is built outside the
	// executor, the hardware model and the benchmark.
	{pr: 33, pattern: `cpu\.(New|MustNew)\(`, allow: `_test\.go$|^(internal/exec|internal/hw|benchmark)/`,
		bad: `	c, err := cpu.New(prof)`, at: "internal/service/server.go", ok: "internal/exec/parallel.go"},
	// One owner for a stored query's tier views: core.Run attaches them on
	// every step (Spec.Storage), colds them in Drive and prices their stall
	// on the last step. No other module attaches a view, and the
	// hand-written attach, residency drop and second stall total stay gone.
	{pr: 34, pattern: `SetStorage\(`, allow: `_test\.go$|^internal/(core|exec)/`,
		bad: `	eng.SetStorage(view)`, at: "internal/service/server.go", ok: "internal/core/drive.go"},
	{pr: 34, pattern: `attachStorage|detachStorage|DropResidency|StorageStallCycles|storageStalls`,
		bad: `	e.attachStorage(q)`, at: "progopt.go"},
	// One reoptimizer loop: the enumerator comparator is core.ModeEnumerated,
	// an evidence source of the stepper, and its mirrored loop stays gone.
	{pr: 35, pattern: `RunProgressiveEnumerated`,
		bad: `func RunProgressiveEnumerated(e *exec.Engine) {`, at: "internal/core/enumerate.go"},
	// One measurement path: every figure and peoexplore measure through
	// core.Run (Spec.Impl picks a fixed run's scan). The engine's whole-table
	// variants stay gone, and no figure or command runs a table or a vector
	// on an engine itself.
	{pr: 36, pattern: `RunBranchFree|RunInstrumented|runTable`, word: true,
		bad: `	res := e.RunBranchFree(q)`, at: "internal/exec/engine.go"},
	{pr: 36, pattern: `eng\.(Run|RunVector)\(`, in: `^(internal/experiments|cmd)/`, allow: `_test\.go$`,
		bad: `	res, err := eng.Run(q)`, at: "cmd/peoexplore/main.go", ok: "internal/experiments/rig_test.go"},
	// Declarations no binary reached and no other test needed stay gone;
	// their tests call the unexported function that does the work.
	{pr: 40, pattern: `func Correlated\(`,
		bad: `func Correlated(rng *rand.Rand, base []int64, corr float64, lo, hi int64) []int64 {`, at: "internal/datagen/datagen.go"},
	{pr: 40, pattern: `func \(\w+ \*?Bounds\) ProductBounds\(`,
		bad: `func (b Bounds) ProductBounds() (lo, hi []float64) {`, at: "internal/core/bounds.go"},
	{pr: 40, pattern: `func RankOrder\(`,
		bad: `func RankOrder(weights, sels []float64) []int {`, at: "internal/core/rank.go"},
	{pr: 40, pattern: `func \(\w+ \*?Hierarchy\) LineSize\(`,
		bad: `func (h *Hierarchy) LineSize() int { return h.cfg.L1.LineSize }`, at: "internal/hw/cache/hierarchy.go"},
	{pr: 40, pattern: `func \(\w+ \*?SortRun\) Sort\(`,
		bad: `func (r *SortRun) Sort() *Sort { return r.s }`, at: "internal/exec/sort.go"},
	{pr: 40, pattern: `func \(\w+ \*?StorageSet\) NumBlocks\(`,
		bad: `func (s *StorageSet) NumBlocks() int { return len(s.costBytes) }`, at: "internal/hw/cache/storage.go"},
	{pr: 40, pattern: `func \(\w+ \*?Rates\) RP\(`,
		bad: `func (r Rates) RP() float64 { return r.RPTaken + r.RPNotTaken }`, at: "internal/costmodel/markov/markov.go"},
	{pr: 40, pattern: `func \(\w+ \*?CPU\) Millis\(`,
		bad: `func (c *CPU) Millis() float64 {`, at: "internal/hw/cpu/cpu.go"},
	{pr: 40, pattern: `func \(\w+ \*?Catalog\) Histogram\(`,
		bad: `func (c *Catalog) Histogram(name string) *Histogram { return c.hists[name] }`, at: "internal/stats/stats.go"},
	// Validation, the predictor reset of a recompile, all four counters of
	// Eq. (10) and the streamer are the paper's loop and cost model, not
	// options: the switches no program set stay gone.
	{pr: 45, pattern: `DisableValidation`, word: true, allow: `_test\.go$`,
		bad: `	DisableValidation bool`, at: "internal/core/progressive.go", ok: "internal/core/stepper_test.go"},
	{pr: 45, pattern: `DisablePredictorReset`, word: true, allow: `_test\.go$`,
		bad: `		if !s.opt.DisablePredictorReset {`, at: "internal/core/stepper.go", ok: "internal/core/stepper_test.go"},
	{pr: 45, pattern: `CounterWeights`, word: true, allow: `_test\.go$`,
		bad: `	Weights *CounterWeights`, at: "internal/core/estimator.go", ok: "internal/core/estimator_ref_test.go"},
	{pr: 45, pattern: `PrefetchDisabled`, word: true, allow: `_test\.go$`,
		bad: `	PrefetchDisabled bool`, at: "internal/hw/cache/hierarchy.go", ok: "internal/hw/cache/access_ref_test.go"},
	// Functions only tests reached stay gone: their tests go through the path
	// a binary takes (EncodeTable and WriteEncoded, ReadEncoded and Decode,
	// core.Run, the streamer's observe, Sample.Project).
	{pr: 50, pattern: `func WriteTableV2\(`,
		bad: `func WriteTableV2(w io.Writer, t *Table, blockRows int) error {`, at: "internal/columnar/io2.go"},
	{pr: 50, pattern: `func LoadTable\(`,
		bad: `func LoadTable(r io.Reader) (*Table, error) {`, at: "internal/columnar/io2.go"},
	{pr: 50, pattern: `func \(\w+ \*?Table\) SizeBytes\(`,
		bad: `func (t *Table) SizeBytes() int {`, at: "internal/columnar/table.go"},
	{pr: 50, pattern: `func RunAdaptive\(`,
		bad: `func RunAdaptive(p *exec.Parallel, q *exec.Query, opt Options, micro bool) (exec.Result, Stats, error) {`, at: "internal/core/drive.go"},
	{pr: 50, pattern: `func \(\w+ \*?Counters\) Sub\(`,
		bad: `func (c Counters) Sub(prev Counters) Counters {`, at: "internal/hw/cache/hierarchy.go"},
	{pr: 50, pattern: `func \(\w+ \*?HitLevel\) String\(`,
		bad: `func (h HitLevel) String() string {`, at: "internal/hw/cache/hierarchy.go"},
	{pr: 50, pattern: `func \(\w+ \*?StreamPrefetcher\) Observe\(`,
		bad: `func (p *StreamPrefetcher) Observe(line uint64) []uint64 {`, at: "internal/hw/cache/prefetch.go"},
	{pr: 50, pattern: `func \(\w+ \*?Group\) Events\(`,
		bad: `func (g Group) Events() []Event { return append([]Event(nil), g.events...) }`, at: "internal/hw/pmu/pmu.go"},
	{pr: 50, pattern: `func \(\w+ \*?Histogram\) Rows\(`,
		bad: `func (h *Histogram) Rows() int64 { return h.total }`, at: "internal/stats/stats.go"},
	// A public result row that has an internal twin is an alias of it, as
	// GroupRow is of exec.Group: no field-by-field copy.
	{pr: 50, pattern: `type OrderedRow struct`,
		bad: `type OrderedRow struct {`, at: "run.go"},
	{pr: 50, pattern: `type TraceAgg struct`,
		bad: `type TraceAgg struct {`, at: "trace.go"},
}

// structureFile is this file, which no rule reads.
const structureFile = "structure_test.go"

// A check is a rule with its regular expressions compiled. Every match of re
// contains one of lits, which lets a file that contains none be skipped
// without matching each of its lines.
type check struct {
	rule
	re, scope, allowed *regexp.Regexp
	lits               []string
}

func (r rule) compile() check {
	pat := r.pattern
	if r.word {
		// As grep -w, for alternatives that begin and end with a word
		// character, which every word rule's do.
		pat = `\b(?:` + pat + `)\b`
	}
	c := check{rule: r, re: regexp.MustCompile(pat)}
	if re, err := syntax.Parse(pat, syntax.Perl); err == nil {
		c.lits = literals(re)
	}
	if !r.deps {
		c.scope = regexp.MustCompile(r.in)
	}
	if r.allow != "" {
		c.allowed = regexp.MustCompile(r.allow)
	}
	return c
}

// literals returns strings one of which every match of re contains, or nil
// when it finds no such set.
func literals(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return literals(re.Sub[0])
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			l := literals(sub)
			if l == nil {
				return nil
			}
			out = append(out, l...)
		}
		return out
	case syntax.OpConcat:
		// Any one part's set will do; the one whose shortest literal is
		// longest skips the most files.
		var best []string
		for _, sub := range re.Sub {
			if l := literals(sub); l != nil && (best == nil || shortest(l) > shortest(best)) {
				best = l
			}
		}
		return best
	}
	return nil
}

func shortest(lits []string) int {
	n := len(lits[0])
	for _, l := range lits[1:] {
		n = min(n, len(l))
	}
	return n
}

// mayMatch reports whether text contains one of the check's literals.
func (c check) mayMatch(text string) bool {
	if c.lits == nil {
		return true
	}
	for _, l := range c.lits {
		if strings.Contains(text, l) {
			return true
		}
	}
	return false
}

// reads reports whether the rule counts the lines of the file at path.
func (c check) reads(path string) bool {
	return path != structureFile && c.scope.MatchString(path) &&
		(c.allowed == nil || !c.allowed.MatchString(path))
}

// A goFile is one .go file of the repository, whole and split into lines.
type goFile struct {
	path, text string
	lines      []string
}

// goFiles returns every .go file of the repository in lexical order.
func goFiles(t *testing.T) []goFile {
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		text := string(b)
		files = append(files, goFile{filepath.ToSlash(p), text, strings.Split(text, "\n")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// deps returns the import path of the package in dir and of every progopt
// package it reaches through non-test imports, sorted.
func deps(t *testing.T, dir string) []string {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(pkgPath string) {
		seen[pkgPath] = true
		pkg, err := build.ImportDir("."+strings.TrimPrefix(pkgPath, "progopt"), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if (imp == "progopt" || strings.HasPrefix(imp, "progopt/")) && !seen[imp] {
				walk(imp)
			}
		}
	}
	walk(path.Join("progopt", dir))
	return slices.Sorted(maps.Keys(seen))
}

// TestStructure holds the structural rules: deleted names stay deleted,
// single call sites stay single and the library does not link the figure
// harness. Each rule first proves it can fire on its own bad line.
func TestStructure(t *testing.T) {
	checks := make([]check, len(rules))
	for i, r := range rules {
		c := r.compile()
		checks[i] = c
		if !c.re.MatchString(r.bad) {
			t.Errorf("rule %q (PR %d) does not match its bad line %q", r.pattern, r.pr, r.bad)
		}
		if r.deps {
			if !slices.ContainsFunc(deps(t, r.at), c.re.MatchString) {
				t.Errorf("rule %q (PR %d) finds nothing in the imports of %s", r.pattern, r.pr, r.at)
			}
			continue
		}
		ok := r.ok
		if ok == "" {
			ok = structureFile
		}
		if !c.reads(r.at) || c.reads(ok) {
			t.Errorf("rule %q (PR %d) should read %s and not %s", r.pattern, r.pr, r.at, ok)
		}
	}
	if t.Failed() {
		return
	}

	files := goFiles(t)
	for _, c := range checks {
		if c.deps {
			for _, p := range deps(t, c.in) {
				if c.re.MatchString(p) {
					t.Errorf("rule %q (PR %d): package %s reaches %s", c.pattern, c.pr, c.in, p)
				}
			}
			continue
		}
		var hits []string
		for _, f := range files {
			if !c.reads(f.path) || !c.mayMatch(f.text) {
				continue
			}
			for i, line := range f.lines {
				if c.re.MatchString(line) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
				}
			}
		}
		if len(hits) != c.want {
			t.Errorf("rule %q (PR %d): %d matching lines, want %d:\n\t%s",
				c.pattern, c.pr, len(hits), c.want, strings.Join(hits, "\n\t"))
		}
	}
}
