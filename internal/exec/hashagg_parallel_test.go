package exec

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
)

// groupedQuery builds a filtered lineitem query plus per-core group tables
// (l_quantity, 50 groups) over a fresh data set; allocations go through the
// first allocator so serial and parallel configurations see identical address
// layouts.
func groupedQuery(t *testing.T, tables int) (*tpch.Dataset, *Query, []*GroupBy, *cpu.CPU) {
	t.Helper()
	return groupedQueryOn(t, tables, "l_quantity")
}

// groupedQueryOn is groupedQuery grouping on the given key column, sized by
// its scanned domain as a compiled plan is.
func groupedQueryOn(t *testing.T, tables int, key string) (*tpch.Dataset, *Query, []*GroupBy, *cpu.CPU) {
	t.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: 20000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.ScaledXeon())
	q := &Query{
		Table: d.Lineitem,
		Ops: []Op{
			&Predicate{Col: d.Lineitem.Column("l_discount"), Op: GE, F: 0.04},
		},
	}
	if err := MustEngine(c, 1024).BindQuery(q); err != nil {
		t.Fatal(err)
	}
	dom, err := ScanKeyDomain(d.Lineitem.Column(key))
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*GroupBy, tables)
	for i := range gs {
		g, err := NewGroupBy(c, d.Lineitem.Column(key), d.Lineitem.Column("l_extendedprice"), dom)
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	return d, q, gs, c
}

// runGroupBy is a grouped aggregation on the whole pool from zero clocks — the
// three calls the query driver (core.Run) makes, with the merge on core 0.
// Cycles is the makespan: the scan's, extended by the merge barrier.
func (r *BlockRun) runGroupBy(q *Query, gs []*GroupBy) (GroupResult, error) {
	if err := r.BeginGroups(gs); err != nil {
		return GroupResult{}, err
	}
	cores, clocks := r.p.fullCores()
	br, err := r.RunBlockSubset(q, 0, r.p.NumVectors(q), cores, clocks, ImplBranching, nil)
	if err != nil {
		return GroupResult{}, err
	}
	c := r.p.workers[0].CPU()
	s0, c0 := c.Sample(), c.Cycles()
	out := GroupResult{Groups: r.FinalizeGroups(0)}
	out.Qualifying, out.Vectors = br.Qualifying, br.Vectors
	out.Cycles = br.MaxCycles + c.Cycles() - c0
	out.Millis = c.MillisOf(out.Cycles)
	out.Counters = br.Counters.Add(c.Sample().Sub(s0))
	return out, nil
}

// poolOfOne returns a pool of one core on the row loop or the batch kernels.
func poolOfOne(t *testing.T, vs int, scalar bool) *Parallel {
	t.Helper()
	p, err := NewParallel(cpu.ScaledXeon(), 1, vs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetScalar(scalar)
	return p
}

// wholeTable runs q's whole table as one block on the one-core pool p, in
// the scan implementation impl.
func wholeTable(t *testing.T, p *Parallel, q *Query, impl ScanImpl) BlockResult {
	t.Helper()
	br, err := p.NewBlockRun().RunBlockSubset(q, 0, p.NumVectors(q), []int{0}, []uint64{0}, impl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return br
}

var updateGroupbyGolden = flag.Bool("update", false, "rewrite testdata/groupby_golden.json from this build's grouped drivers")

const groupbyGoldenPath = "testdata/groupby_golden.json"

// groupbyGoldenRow pins one grouped run: the output rows (as a hash of every
// key, count and sum bit pattern in output order), the makespan with its
// merge barrier, and the full merged PMU delta. The file was captured while
// the reducer kept one presence table per core and the barrier issued scalar
// loads; it is the record of what that code simulated.
type groupbyGoldenRow struct {
	Config     string
	Qualifying int64
	Vectors    int
	NumGroups  int
	Groups     string // FNV-64a of (key, count, sum bits) per output row
	Cycles     uint64
	Counters   []uint64 // the PMU delta, indexed by pmu.Event
}

func groupbyGoldenOf(config string, res GroupResult) groupbyGoldenRow {
	h := fnv.New64a()
	for _, g := range res.Groups {
		fmt.Fprintf(h, "%d,%d,%d;", g.Key, g.Count, math.Float64bits(g.Sum))
	}
	row := groupbyGoldenRow{
		Config: config, Qualifying: res.Qualifying, Vectors: res.Vectors,
		NumGroups: len(res.Groups), Groups: fmt.Sprintf("%016x", h.Sum64()), Cycles: res.Cycles,
	}
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		row.Counters = append(row.Counters, res.Counters.Get(ev))
	}
	return row
}

// TestParallelRunGroupBy checks the morsel-parallel grouped aggregation
// against a pool of one core — identical groups (bit-identical sums), a
// makespan below its cycle count — and pins every run to the golden file: a
// 50-key and a 667-key domain × Workers {1, 2, 4, 7, 65} (128-row morsels, so
// all 65 cores hold partial tables) × GOMAXPROCS {1, 4}. go test
// ./internal/exec -run TestParallelRunGroupBy -update rewrites the file; only
// an intended change of simulated behaviour may.
func TestParallelRunGroupBy(t *testing.T) {
	const vs = 128
	domains := []struct {
		key    string
		groups int
	}{{"l_quantity", 50}, {"l_partkey", 667}}
	var got []groupbyGoldenRow
	for _, dom := range domains {
		_, _, gs, _ := groupedQueryOn(t, 1, dom.key)
		if d := gs[0].domain; d.Groups != dom.groups || !d.Dense {
			t.Fatalf("%s: scanned domain %+v, want %d dense keys", dom.key, d, dom.groups)
		}
		runPar := func(workers, procs int) GroupResult {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, qp, gsp, _ := groupedQueryOn(t, workers, dom.key)
			p, err := NewParallel(cpu.ScaledXeon(), workers, vs)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			res, err := p.NewBlockRun().runGroupBy(qp, gsp)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var one GroupResult
		for _, workers := range []int{1, 2, 4, 7, 65} {
			res := runPar(workers, 1)
			if workers == 1 {
				if len(res.Groups) == 0 {
					t.Fatal("no groups")
				}
				one = res
			}
			if res.Qualifying != one.Qualifying {
				t.Errorf("%s, %d workers: qualifying %d vs one core's %d", dom.key, workers, res.Qualifying, one.Qualifying)
			}
			if !reflect.DeepEqual(res.Groups, one.Groups) {
				t.Fatalf("%s, %d workers: groups differ from one core's", dom.key, workers)
			}
			if workers == 4 && res.Cycles >= one.Cycles {
				t.Errorf("%s: 4-core makespan %d not below one core's %d", dom.key, res.Cycles, one.Cycles)
			}
			if res4 := runPar(workers, 4); !reflect.DeepEqual(res4, res) {
				t.Errorf("%s, %d workers: GOMAXPROCS 4 differs from GOMAXPROCS 1", dom.key, workers)
			}
			got = append(got, groupbyGoldenOf(fmt.Sprintf("%s/workers=%d", dom.key, workers), res))
		}
	}
	if *updateGroupbyGolden {
		// One run per line, so a behaviour change diffs as the runs it moved.
		out := []byte("[\n")
		for i, row := range got {
			b, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
			if i < len(got)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		if err := os.WriteFile(groupbyGoldenPath, append(out, "]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(groupbyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []groupbyGoldenRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Config, got[i], want[i])
		}
	}
}

// TestParallelRunGroupByValidation covers the error paths.
func TestParallelRunGroupByValidation(t *testing.T) {
	_, q, gs, _ := groupedQuery(t, 4)
	p, err := NewParallel(cpu.ScaledXeon(), 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	r := p.NewBlockRun()
	if _, err := r.runGroupBy(q, gs[:2]); err == nil {
		t.Error("accepted 2 partial tables for 4 workers")
	}
	if _, err := r.runGroupBy(q, []*GroupBy{nil, nil, nil, nil}); err == nil {
		t.Error("accepted nil partial tables")
	}
	if _, err := r.runGroupBy(&Query{Table: q.Table}, gs); err == nil {
		t.Error("accepted an invalid query")
	}
}

// TestGroupVectorMatchesScalar pins the refactor: the batch and scalar
// forms of GroupVector qualify the same rows.
func TestGroupVectorMatchesScalar(t *testing.T) {
	_, q, gs, c := groupedQuery(t, 1)
	batch := MustEngine(c, 1024)
	scalar := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
	scalar.SetScalar(true)
	for lo := 0; lo < q.Table.NumRows(); lo += 4096 {
		hi := lo + 1024
		selB, err := batch.GroupVector(q, gs[0], lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		selS, err := scalar.GroupVector(q, gs[0], lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(selB) != len(selS) {
			t.Fatalf("[%d,%d): batch %d rows, scalar %d", lo, hi, len(selB), len(selS))
		}
		for i := range selB {
			if selB[i] != selS[i] {
				t.Fatalf("[%d,%d): row %d: batch %d, scalar %d", lo, hi, i, selB[i], selS[i])
			}
		}
	}
}

// TestGroupedRunAfterFailedRunIsClean: a run context is recycled from query
// to query (the server's freelist), so a grouped run that dies mid-block — a
// corrupt foreign key in morsel 5, after morsels 0–4 were reduced — must leave
// nothing in its accumulator for the next query: the next grouped run on the
// same context returns exactly what a fresh pool returns.
func TestGroupedRunAfterFailedRunIsClean(t *testing.T) {
	d, q := failingJoinQuery(t)
	q.Agg = nil
	c := cpu.MustNew(cpu.ScaledXeon())
	const workers = 4
	gs := make([]*GroupBy, workers)
	for i := range gs {
		g, err := NewGroupBy(c, d.Lineitem.Column("l_quantity"), d.Lineitem.Column("l_extendedprice"), KeyDomain{Groups: 50})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	newPool := func() *Parallel {
		p, err := NewParallel(cpu.ScaledXeon(), workers, 512)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p := newPool()
			defer p.Close()
			r := p.NewBlockRun()
			keys := d.Lineitem.Column("l_orderkey").I64()
			saved := keys[5*512+17]
			keys[5*512+17] = int64(d.NumOrders) + 55
			func() {
				defer func() {
					if recover() == nil {
						t.Error("grouped run over a corrupt key did not fail")
					}
				}()
				r.runGroupBy(q, gs)
			}()
			keys[5*512+17] = saved
			if len(r.groupAcc.sorted()) == 0 {
				t.Fatal("the failed run reduced nothing before it failed: the test injects too early")
			}
			p.Cold()
			got, err := r.runGroupBy(q, gs)
			if err != nil {
				t.Fatal(err)
			}
			fresh := newPool()
			defer fresh.Close()
			want, err := fresh.NewBlockRun().runGroupBy(q, gs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gomaxprocs=%d: run after a failed run differs from a fresh pool's:\n got %+v ... %+v\nwant %+v ... %+v",
					procs, got.Groups[0], got.Result, want.Groups[0], want.Result)
			}
		}()
	}
}
