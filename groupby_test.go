package progopt

import (
	"math"
	"runtime"
	"testing"
)

func TestRunGroupByFacade(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 14, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.05).
		GroupBy("l_quantity", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Groups
	if len(rows) == 0 || len(rows) > 50 {
		t.Fatalf("%d groups for a 1..50 quantity domain", len(rows))
	}
	var total int64
	var sum float64
	prev := int64(-1)
	for _, r := range rows {
		if r.Key <= prev {
			t.Fatal("groups not sorted")
		}
		prev = r.Key
		if r.Key < 1 || r.Key > 50 {
			t.Fatalf("group key %d outside quantity domain", r.Key)
		}
		total += r.Count
		sum += r.Sum
	}
	if total != res.Qualifying {
		t.Errorf("group counts sum to %d, run qualified %d", total, res.Qualifying)
	}
	// Cross-check with the plain aggregate over the same filter.
	q2, err := e.Compile(d, Scan("lineitem").Filter("l_discount", CmpGE, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Exec(q2, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if total != plain.Qualifying {
		t.Errorf("grouped cardinality %d != plain %d", total, plain.Qualifying)
	}
	if math.IsNaN(sum) || sum <= 0 {
		t.Error("degenerate grouped sum")
	}

	if _, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.05).
		GroupBy("nope", "l_extendedprice")); err == nil {
		t.Error("unknown group column accepted")
	}
}

// TestGroupedExecSteadyStateAllocs pins who owns the grouped accumulator: the
// executor, not the run. A warm grouped Exec on four cores allocates the same
// few objects whatever the key domain, and its bytes grow with the domain by
// the output rows alone — no table, presence set or sort scratch is rebuilt
// per run (the five per-run tables this replaced were 20 MB of a 25 MB
// iteration on the benchmark's report workload).
func TestGroupedExecSteadyStateAllocs(t *testing.T) {
	e, err := New(Config{Workers: 4, VectorSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(120_000, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(key string) (allocs float64, bytes uint64, groups int) {
		q, err := e.Compile(d, Scan("lineitem").Filter("l_discount", CmpGE, 0.02).GroupBy(key, "l_extendedprice"))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			groups = len(res.Groups)
		}
		run() // size the accumulator, the sort scratch and the morsel ring
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, run) // runs+1 calls, at GOMAXPROCS 1
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1), groups
	}
	narrowAllocs, narrowBytes, narrowGroups := measure("l_quantity")
	wideAllocs, wideBytes, wideGroups := measure("l_partkey")
	if narrowGroups != 50 || wideGroups < 4000 {
		t.Fatalf("%d and %d groups; the comparison needs a 50-key and a 4 001-key domain", narrowGroups, wideGroups)
	}
	if wideAllocs > narrowAllocs+2 {
		t.Errorf("%.1f allocs per Exec over %d keys, %.1f over %d: the count grows with the domain",
			wideAllocs, wideGroups, narrowAllocs, narrowGroups)
	}
	if narrowAllocs > 16 {
		t.Errorf("warm grouped Exec allocates %.1f times; budget 16", narrowAllocs)
	}
	// The output rows, rounded up to their size class, and nothing else.
	rowBytes := uint64(wideGroups-narrowGroups) * 24
	if grown := wideBytes - narrowBytes; wideBytes > narrowBytes && grown > rowBytes+rowBytes/4+4096 {
		t.Errorf("a warm grouped Exec allocates %d B more over %d keys than over %d; the output rows account for %d B",
			grown, wideGroups, narrowGroups, rowBytes)
	}
}
