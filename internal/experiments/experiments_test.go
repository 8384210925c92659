package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true, Seed: 7} }

func cell(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("report %s cell (%d,%d) = %q not numeric: %v", r.ID, row, col, r.Rows[row][col], err)
	}
	return v
}

func colIndex(t *testing.T, r *Report, name string) int {
	t.Helper()
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("report %s lacks column %q (have %v)", r.ID, name, r.Columns)
	return -1
}

// runAll exercises every experiment in Quick mode; structural checks only.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments sweep")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			reps, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(reps) == 0 {
				t.Fatalf("%s returned no reports", e.ID)
			}
			for _, r := range reps {
				if len(r.Rows) == 0 {
					t.Errorf("%s/%s has no rows", e.ID, r.ID)
				}
				for i, row := range r.Rows {
					if len(row) != len(r.Columns) {
						t.Errorf("%s/%s row %d has %d cells for %d columns", e.ID, r.ID, i, len(row), len(r.Columns))
					}
				}
				if !strings.Contains(r.String(), r.Title) {
					t.Errorf("%s/%s String() lacks title", e.ID, r.ID)
				}
				if lines := strings.Count(r.CSV(), "\n"); lines != len(r.Rows)+1 {
					t.Errorf("%s/%s CSV has %d lines, want %d", e.ID, r.ID, lines, len(r.Rows)+1)
				}
			}
		})
	}
}

// TestExtJoinsRefusesTooFewPoints pins ext-joins' scale limit: the quick
// scale on four workers gives each progressive run one optimization point,
// and the figure says so instead of failing one of its checks.
func TestExtJoinsRefusesTooFewPoints(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 4
	_, err := ExtJoins(cfg)
	if err == nil || !strings.Contains(err.Error(), "1 optimization point(s), fewer than the 2") {
		t.Fatalf("ExtJoins at -quick -workers 4: %v, want the optimization-point limit", err)
	}
}

// TestExtTraceRefusesTooFewPoints pins ext-trace's scale limit: the quick
// scale on four workers gives the progressive run no optimization point, so
// no reorder event can appear, and the figure says so.
func TestExtTraceRefusesTooFewPoints(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 4
	_, err := ExtTrace(cfg)
	if err == nil || !strings.Contains(err.Error(), "0 optimization points, fewer than the 1") {
		t.Fatalf("ExtTrace at -quick -workers 4: %v, want the optimization-point limit", err)
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig07")
	if err != nil || e.ID != "fig07" {
		t.Fatalf("ByID(fig07) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig01ShapeRatioAboveOneAtLowSelectivity(t *testing.T) {
	reps, err := Fig01(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	ci := colIndex(t, r, "worst_best_ratio")
	// Figure 1's shape: the ratio is large (>2) at the lowest selectivity
	// and shrinks toward high selectivity.
	lowest := cell(t, r, 0, ci)
	highest := cell(t, r, len(r.Rows)-1, ci)
	if lowest < 1.5 {
		t.Errorf("worst/best at lowest selectivity = %v, want > 1.5", lowest)
	}
	if highest >= lowest {
		t.Errorf("ratio did not shrink with selectivity: %v -> %v", lowest, highest)
	}
	for i := range r.Rows {
		if v := cell(t, r, i, ci); v < 1 {
			t.Errorf("row %d: worst/best ratio %v < 1", i, v)
		}
	}
}

func TestFig02ShapeBranchCurves(t *testing.T) {
	reps, err := Fig02(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	bnt := colIndex(t, r, "br_not_taken_pct")
	mp := colIndex(t, r, "br_mp_pct")
	// BNT rises 0 -> 100 with selectivity.
	if cell(t, r, 0, bnt) > 5 || cell(t, r, len(r.Rows)-1, bnt) < 95 {
		t.Error("branches-not-taken curve wrong")
	}
	// MP is low at the ends and higher in the middle.
	mid := len(r.Rows) / 2
	if !(cell(t, r, mid, mp) > cell(t, r, 0, mp) && cell(t, r, mid, mp) > cell(t, r, len(r.Rows)-1, mp)) {
		t.Error("misprediction curve not peaked in the middle")
	}
}

func TestFig03SixStateTracksIvy(t *testing.T) {
	reps, err := Fig03(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	all := reps[2]
	six := colIndex(t, all, "6 States")
	two := colIndex(t, all, "2 States")
	ivy := colIndex(t, all, "Ivy Sample")
	var err6, err2 float64
	for i := range all.Rows {
		d6 := cell(t, all, i, six) - cell(t, all, i, ivy)
		d2 := cell(t, all, i, two) - cell(t, all, i, ivy)
		err6 += d6 * d6
		err2 += d2 * d2
	}
	if err6 >= err2 {
		t.Errorf("6-state total error %v not below 2-state %v", err6, err2)
	}
}

func TestFig07MatchesPaperNumbers(t *testing.T) {
	reps, err := Fig07(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	ub := colIndex(t, r, "upper_bnt")
	lb := colIndex(t, r, "lower_bnt")
	// Paper: upper [100, 95, 66, 10], lower [67, 50, 10, 10].
	wantU := []float64{100, 95, 66.7, 10}
	wantL := []float64{66.7, 50, 10, 10}
	for i := range wantU {
		if got := cell(t, r, i, ub); got < wantU[i]-1 || got > wantU[i]+1 {
			t.Errorf("upper BNT[%d] = %v, want ~%v", i, got, wantU[i])
		}
		if got := cell(t, r, i, lb); got < wantL[i]-1 || got > wantL[i]+1 {
			t.Errorf("lower BNT[%d] = %v, want ~%v", i, got, wantL[i])
		}
	}
}

func TestFig11ProgressiveFlattensBadOrders(t *testing.T) {
	reps, err := Fig11(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	base := colIndex(t, r, "base_ms")
	opt := colIndex(t, r, "optimized_ms")
	last := len(r.Rows) - 1
	// For the slowest baseline PEO, progressive must win clearly.
	if cell(t, r, last, opt) >= cell(t, r, last, base) {
		t.Errorf("worst PEO: optimized %v not below baseline %v",
			cell(t, r, last, opt), cell(t, r, last, base))
	}
	// Spread of optimized times is much narrower than baseline spread.
	baseSpread := cell(t, r, last, base) / cell(t, r, 0, base)
	optSpread := cell(t, r, last, opt) / cell(t, r, 0, opt)
	if optSpread > baseSpread {
		t.Errorf("optimized spread %v exceeds baseline spread %v", optSpread, baseSpread)
	}
}

func TestFig14CrossoverInMissesAndRuntime(t *testing.T) {
	reps, err := Fig14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rt := reps[0]
	selMs := colIndex(t, rt, "selection_first_ms")
	joinMs := colIndex(t, rt, "join_first_ms")
	// Sorted end (first row): join-first at least as good; random end (last
	// row): selection-first wins (the paper's break-even behaviour).
	first, last := 0, len(rt.Rows)-1
	if cell(t, rt, first, joinMs) > cell(t, rt, first, selMs)*1.05 {
		t.Errorf("sorted data: join-first %v much slower than selection-first %v",
			cell(t, rt, first, joinMs), cell(t, rt, first, selMs))
	}
	if cell(t, rt, last, selMs) >= cell(t, rt, last, joinMs) {
		t.Errorf("random data: selection-first %v not below join-first %v",
			cell(t, rt, last, selMs), cell(t, rt, last, joinMs))
	}
	// Cache misses grow with shuffle distance for join-first.
	cm := reps[1]
	jm := colIndex(t, cm, "join_first_l3miss")
	if cell(t, cm, last, jm) <= cell(t, cm, first, jm) {
		t.Error("join-first misses did not grow with shuffle distance")
	}
}

func TestFig15OrdersFirstAlwaysWins(t *testing.T) {
	reps, err := Fig15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rt := reps[0]
	of := colIndex(t, rt, "orders_first_ms")
	pf := colIndex(t, rt, "part_first_ms")
	for i := range rt.Rows {
		if cell(t, rt, i, of) >= cell(t, rt, i, pf) {
			t.Errorf("row %d: orders-first %v not below part-first %v",
				i, cell(t, rt, i, of), cell(t, rt, i, pf))
		}
	}
	cm := reps[1]
	ofm := colIndex(t, cm, "orders_first_l3miss")
	pfm := colIndex(t, cm, "part_first_l3miss")
	for i := range cm.Rows {
		if cell(t, cm, i, ofm) >= cell(t, cm, i, pfm) {
			t.Errorf("row %d: orders-first misses %v not below part-first %v",
				i, cell(t, cm, i, ofm), cell(t, cm, i, pfm))
		}
	}
}

func TestFig16EnumeratorDwarfsPMU(t *testing.T) {
	reps, err := Fig16(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	en := colIndex(t, r, "enumerator_overhead_pct")
	pa := colIndex(t, r, "papi_overhead_pct")
	for i := range r.Rows {
		enum, papi := cell(t, r, i, en), cell(t, r, i, pa)
		if enum < papi*10 {
			t.Errorf("row %d: enumerator overhead %v%% not ≫ papi %v%%", i, enum, papi)
		}
		if papi > 1 {
			t.Errorf("row %d: papi overhead %v%% not negligible", i, papi)
		}
	}
	// Enumerator overhead grows with predicate count.
	if cell(t, r, len(r.Rows)-1, en) <= cell(t, r, 0, en) {
		t.Error("enumerator overhead did not grow with predicates")
	}
}

// TestExtGroupByScales: the grouped aggregation scales with the cores it runs
// on, its merge barrier included — each core merges its own range of the keys,
// so the barrier shrinks with the scan. The speedup rises strictly from 2 to 4
// to 8 workers and reaches 6 at 8.
func TestExtGroupByScales(t *testing.T) {
	reps, err := ExtGroupBy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := reps[0]
	wc, sc := colIndex(t, r, "workers"), colIndex(t, r, "speedup")
	prev := 1.0
	for i := range r.Rows {
		workers, speedup := cell(t, r, i, wc), cell(t, r, i, sc)
		if workers > 1 && speedup <= prev {
			t.Errorf("%v workers: speedup %v, not above %v", workers, speedup, prev)
		}
		prev = speedup
		if workers == 8 && speedup < 6 {
			t.Errorf("8 workers: speedup %v, want at least 6", speedup)
		}
	}
	if last := cell(t, r, len(r.Rows)-1, wc); last != 8 {
		t.Fatalf("last row has %v workers, want 8", last)
	}
}

// TestExtEnumIsSerial: every ext-enum column runs on one core, so the quick
// rows at Workers 4 are those at Workers 1 — the enumerated optimizer's core-0
// run is compared with a baseline and a PMU run on that one core too.
func TestExtEnumIsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two ext-enum sweeps")
	}
	rows := func(workers int) [][]string {
		cfg := quickCfg()
		cfg.Workers = workers
		reps, err := ExtEnum(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return reps[0].Rows
	}
	if one, four := rows(1), rows(4); !reflect.DeepEqual(one, four) {
		t.Fatalf("ext-enum rows differ with the worker count:\n1: %v\n4: %v", one, four)
	}
}

// TestSingleCoreFiguresAreSerial: the figures that read one core's counters
// or compare one core's runs build their rig on a pool of one, so their quick
// rows at Workers 4 are those at Workers 1.
func TestSingleCoreFiguresAreSerial(t *testing.T) {
	for _, id := range []string{"fig02", "fig04", "fig06", "fig16", "ext-micro"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rows := func(workers int) [][][]string {
			cfg := quickCfg()
			cfg.Workers = workers
			reps, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out [][][]string
			for _, r := range reps {
				out = append(out, r.Rows)
			}
			return out
		}
		if one, four := rows(1), rows(4); !reflect.DeepEqual(one, four) {
			t.Errorf("%s rows differ with the worker count:\n1: %v\n4: %v", id, one, four)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "x", Title: "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"33", "4"}},
		Notes:   []string{"n1"},
	}
	s := r.String()
	if !strings.Contains(s, "note: n1") {
		t.Error("notes missing")
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestSamplePerms(t *testing.T) {
	perms := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	if got := samplePerms(perms, 0); len(got) != 6 {
		t.Error("k=0 must keep all")
	}
	if got := samplePerms(perms, 10); len(got) != 6 {
		t.Error("k>len must keep all")
	}
	got := samplePerms(perms, 3)
	if len(got) != 3 || got[0][0] != 0 {
		t.Errorf("samplePerms(3) = %v", got)
	}
}
