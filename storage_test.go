package progopt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The storage acceptance criterion: a plan over the stored (PCOL v2) data
// set with an unbounded resident set produces the exact rows, aggregates,
// and PMU counters of the same plan over the in-RAM data set, in every Exec
// mode, at Workers 1 and 4, fused and unfused. Only reported Cycles may
// differ — by the priced tier's stall debt, and on a serial engine by
// exactly the run's stall cycles.

// storedQ6Plan is the suite's workhorse: Q6's five reorderable predicates
// plus the aggregate, in the deliberately bad reversed order.
func storedQ6Plan() *Plan {
	return Scan("lineitem").
		Filter("l_quantity", CmpLT, 24).Label("quantity<24").
		Filter("l_discount", CmpLE, 0.07+1e-9).Label("discount<=0.07").
		Filter("l_discount", CmpGE, 0.05-1e-9).Label("discount>=0.05").
		Filter("l_shipdate", CmpLT, 9000).Label("shipdate<hi").
		Filter("l_shipdate", CmpGE, 8766).Label("shipdate>=lo").
		Sum("l_extendedprice * l_discount")
}

// storedSetup compiles the plan on a fresh engine over a fresh data set.
func storedSetup(t *testing.T, cfg Config, order Ordering, p *Plan) (*Engine, *Dataset, *Query) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.GenerateTPCH(30000, 21, order)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return e, d, q
}

// TestStoredFaithfulBitIdentity runs the full acceptance matrix: every mode,
// Workers 1 and 4, fused and unfused, RAM engine vs stored engine with a
// priced tier and unbounded resident set.
func TestStoredFaithfulBitIdentity(t *testing.T) {
	stcfg := &StorageConfig{LatencyCycles: 500, BytesPerCycle: 16}
	for _, workers := range []int{1, 4} {
		for _, noFuse := range []bool{false, true} {
			for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
				name := fmt.Sprintf("workers=%d/nofuse=%v/%s", workers, noFuse, mode)
				t.Run(name, func(t *testing.T) {
					opts := ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}}
					ramCfg := Config{VectorSize: 1024, Workers: workers}
					ref := refPath{noFuse: noFuse}
					eRAM, _, qRAM := storedSetup(t, ramCfg, OrderNatural, storedQ6Plan())
					eRAM.setRef(ref)
					want, err := eRAM.Exec(qRAM, opts)
					if err != nil {
						t.Fatal(err)
					}
					stCfg := ramCfg
					stCfg.Storage = stcfg
					eST, _, qST := storedSetup(t, stCfg, OrderNatural, storedQ6Plan())
					eST.setRef(ref)
					got, err := eST.Exec(qST, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
						t.Errorf("answers diverge: %d/%v vs %d/%v",
							got.Qualifying, got.Sum, want.Qualifying, want.Sum)
					}
					// The tier observes: every PMU counter — cycles event
					// included — matches the in-RAM run bit for bit.
					if !reflect.DeepEqual(got.Counters, want.Counters) {
						t.Errorf("PMU counters diverge:\n ram    %v\n stored %v", want.Counters, got.Counters)
					}
					sameStats(t, "stored", want.Stats, got.Stats)
					st := got.Storage
					if st == nil {
						t.Fatal("stored run reported no StorageStats")
					}
					if st.BlockFetches == 0 || st.StallCycles == 0 {
						t.Fatalf("priced tier saw no traffic: %+v", st)
					}
					if st.Evictions != 0 {
						t.Errorf("unbounded resident set evicted %d blocks", st.Evictions)
					}
					if workers == 1 {
						if got.Cycles != want.Cycles+st.StallCycles {
							t.Errorf("serial cycles %d != ram %d + stalls %d",
								got.Cycles, want.Cycles, st.StallCycles)
						}
					} else {
						if got.Cycles <= want.Cycles || got.Cycles > want.Cycles+st.StallCycles {
							t.Errorf("parallel cycles %d outside (ram %d, ram+stalls %d]",
								got.Cycles, want.Cycles, want.Cycles+st.StallCycles)
						}
					}
				})
			}
		}
	}
}

// TestStoredDeterminism pins stored execution (priced tier, zone maps,
// compression, bounded budget all on) to itself: two independently built
// engines produce bit-identical everything, including tier counters.
func TestStoredDeterminism(t *testing.T) {
	cfg := Config{VectorSize: 1024, Workers: 4, Storage: &StorageConfig{
		BlockRows: 2048, LatencyCycles: 300, BytesPerCycle: 8,
		ResidentBytes: 64 << 10, SkipScan: true, CompressedScan: true,
	}}
	run := func() ExecResult {
		e, _, q := storedSetup(t, cfg, OrderSorted, storedQ6Plan())
		r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	sameResult(t, "stored-determinism", a.Result, b.Result)
	if !reflect.DeepEqual(a.Storage, b.Storage) {
		t.Errorf("storage stats diverge:\n %+v\n %+v", a.Storage, b.Storage)
	}
}

// TestStoredSkipScanProperty is the randomized skip-scan oracle: for random
// predicates, block sizes, vector sizes, and row orderings, a zone-map
// skip-scan returns the answers of the same engine with skipping off.
func TestStoredSkipScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := []Ordering{OrderNatural, OrderSorted, OrderClustered, OrderRandom}
	cmps := []Cmp{CmpLE, CmpLT, CmpGE, CmpGT, CmpEQ}
	skippedTotal := 0
	for trial := 0; trial < 12; trial++ {
		vectorSize := []int{512, 1024, 1536}[rng.Intn(3)]
		blockRows := []int{512, 1000, 2048, 4096}[rng.Intn(4)]
		order := orders[rng.Intn(len(orders))]
		workers := []int{1, 4}[rng.Intn(2)]
		p := Scan("lineitem").
			Filter("l_shipdate", cmps[rng.Intn(4)], int64(8000+rng.Intn(2000))).
			Filter("l_quantity", cmps[rng.Intn(len(cmps))], int64(1+rng.Intn(50))).
			Sum("l_extendedprice * l_discount")
		run := func(skip bool) (ExecResult, int) {
			cfg := Config{VectorSize: vectorSize, Workers: workers, Storage: &StorageConfig{
				BlockRows: blockRows, LatencyCycles: 100, BytesPerCycle: 64, SkipScan: skip,
			}}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := e.GenerateTPCH(20000+rng.Intn(3)*3000, int64(trial), order)
			if err != nil {
				t.Fatal(err)
			}
			q, err := e.Compile(d, p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			return r, r.Storage.VectorsSkipped
		}
		// Same rng draws for both runs: rebuild the data set deterministically.
		seedState := rng.Int63()
		rng = rand.New(rand.NewSource(seedState))
		full, _ := run(false)
		rng = rand.New(rand.NewSource(seedState))
		skip, skipped := run(true)
		skippedTotal += skipped
		if full.Qualifying != skip.Qualifying || full.Sum != skip.Sum {
			t.Errorf("trial %d (vs=%d br=%d %s w=%d): skip-scan %d/%v, full scan %d/%v",
				trial, vectorSize, blockRows, order, workers,
				skip.Qualifying, skip.Sum, full.Qualifying, full.Sum)
		}
	}
	if skippedTotal == 0 {
		t.Error("no trial ever skipped a vector; the property test is vacuous")
	}
}

// TestStoredSkipScanPrunes pins the headline pruning claim: on shipdate-
// sorted data a selective shipdate predicate lets zone maps prune at least
// half the blocks, and the skipping engine spends fewer cycles than the
// non-skipping one.
func TestStoredSkipScanPrunes(t *testing.T) {
	plan := func(d *Dataset) *Plan {
		return Scan("lineitem").
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.10))).Label("ship10").
			Sum("l_extendedprice * l_discount")
	}
	run := func(skip bool) ExecResult {
		e, err := New(Config{VectorSize: 1024, Storage: &StorageConfig{
			BlockRows: 1024, LatencyCycles: 200, BytesPerCycle: 32, SkipScan: skip,
		}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.GenerateTPCH(30000, 3, OrderSorted)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(d, plan(d))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, skip := run(false), run(true)
	if full.Qualifying != skip.Qualifying || full.Sum != skip.Sum {
		t.Fatalf("answers diverge: %d/%v vs %d/%v", skip.Qualifying, skip.Sum, full.Qualifying, full.Sum)
	}
	st := skip.Storage
	if st.BlocksPruned*2 < st.BlocksTotal {
		t.Errorf("selective predicate pruned %d/%d blocks, want >= half", st.BlocksPruned, st.BlocksTotal)
	}
	if st.VectorsSkipped == 0 {
		t.Error("no vectors skipped despite pruned blocks")
	}
	if skip.Cycles >= full.Cycles {
		t.Errorf("skip-scan cycles %d not below full-scan %d", skip.Cycles, full.Cycles)
	}
}

// TestStoredCompressedScan: pricing predicate scans over the packed images
// changes no answer but moves fewer simulated bytes through the hierarchy
// (the mem_access counter counts lines fetched from memory).
func TestStoredCompressedScan(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(compressed bool) ExecResult {
				cfg := Config{VectorSize: 1024, Workers: workers, Storage: &StorageConfig{
					LatencyCycles: 100, BytesPerCycle: 64, CompressedScan: compressed,
				}}
				e, _, q := storedSetup(t, cfg, OrderNatural, storedQ6Plan())
				r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			plain, packed := run(false), run(true)
			if plain.Qualifying != packed.Qualifying || plain.Sum != packed.Sum {
				t.Fatalf("answers diverge: %d/%v vs %d/%v",
					packed.Qualifying, packed.Sum, plain.Qualifying, plain.Sum)
			}
			if pm, cm := plain.Counters["mem_access"], packed.Counters["mem_access"]; cm >= pm {
				t.Errorf("compressed scan moved %d lines from memory, plain %d; want fewer", cm, pm)
			}
		})
	}
}

// TestStoredResidentBudget: shrinking the resident-set budget forces
// evictions and re-fetches, so cold-scan cycles grow monotonically as the
// budget tightens; results never change. Blocks span four vectors (4096
// rows vs 1024-row vectors), so a budget below the plan's ~44 KB current-
// block working set evicts blocks that the very next vector re-fetches.
func TestStoredResidentBudget(t *testing.T) {
	run := func(budget uint64) ExecResult {
		e, _, q := storedSetup(t, Config{VectorSize: 1024, Storage: &StorageConfig{
			BlockRows: 4096, LatencyCycles: 400, BytesPerCycle: 8, ResidentBytes: budget,
		}}, OrderNatural, storedQ6Plan())
		r, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	unbounded := run(0)
	tight := run(40 << 10)
	tighter := run(16 << 10)
	for _, r := range []ExecResult{tight, tighter} {
		if r.Qualifying != unbounded.Qualifying || r.Sum != unbounded.Sum {
			t.Fatalf("budget changed the answer: %d/%v vs %d/%v",
				r.Qualifying, r.Sum, unbounded.Qualifying, unbounded.Sum)
		}
	}
	if unbounded.Storage.Evictions != 0 {
		t.Errorf("unbounded budget evicted %d blocks", unbounded.Storage.Evictions)
	}
	if tight.Storage.Evictions == 0 || tighter.Storage.Evictions <= tight.Storage.Evictions {
		t.Errorf("evictions not growing: unbounded %d, tight %d, tighter %d",
			unbounded.Storage.Evictions, tight.Storage.Evictions, tighter.Storage.Evictions)
	}
	if !(unbounded.Cycles < tight.Cycles && tight.Cycles < tighter.Cycles) {
		t.Errorf("cycles not growing as budget shrinks: %d, %d, %d",
			unbounded.Cycles, tight.Cycles, tighter.Cycles)
	}
}

// TestStoredServedEquivalence: a stored query submitted to an otherwise idle
// server matches Engine.Exec — answers everywhere; cycles, counters, and
// tier stats where the served protocol matches the dedicated drivers.
func TestStoredServedEquivalence(t *testing.T) {
	stcfg := &StorageConfig{LatencyCycles: 250, BytesPerCycle: 16, SkipScan: true}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{VectorSize: 1024, Workers: workers, Storage: stcfg}
			eOld, _, qOld := storedSetup(t, cfg, OrderSorted, storedQ6Plan())
			want, err := eOld.Exec(qOld, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			eNew, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dNew, err := eNew.GenerateTPCH(30000, 21, OrderSorted)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(eNew, ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tk, err := srv.Submit(dNew, storedQ6Plan(), ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "served-stored", want.Result, got.Result)
			if !reflect.DeepEqual(want.Storage, got.Storage) {
				t.Errorf("storage stats diverge:\n exec   %+v\n served %+v", want.Storage, got.Storage)
			}
		})
	}
}

// TestStoredExplain pins the storage provenance line of Explain: rendered
// facts must match the structured fields, and the faithful/skip/compressed
// capability flags must show up.
func TestStoredExplain(t *testing.T) {
	e, _, q := storedSetup(t, Config{VectorSize: 1024, Storage: &StorageConfig{
		BlockRows: 4096, LatencyCycles: 500, BytesPerCycle: 16,
		ResidentBytes: 128 << 10, SkipScan: true, CompressedScan: true,
	}}, OrderSorted, storedQ6Plan())
	pe, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if pe.StorageBlocksTotal != 8 { // ceil(30000/4096)
		t.Errorf("blocks total %d, want 8", pe.StorageBlocksTotal)
	}
	if pe.StorageBlocksPruned == 0 || pe.StorageVectorsSkipped == 0 {
		t.Errorf("sorted shipdate plan pruned %d blocks / skipped %d vectors, want > 0",
			pe.StorageBlocksPruned, pe.StorageVectorsSkipped)
	}
	line := fmt.Sprintf(
		"storage: pcol v2 (8 blocks x 4096 rows, %d -> %d bytes); zone maps prune %d/8 blocks (%d vectors skipped); compressed scan; tier 500 cyc + 16 B/cyc, 131072 B resident budget",
		q.storage.plan.Enc.PlainBytes(), q.storage.plan.Enc.EncodedBytes(),
		pe.StorageBlocksPruned, pe.StorageVectorsSkipped)
	if pe.Storage != strings.TrimPrefix(line, "storage: ") {
		t.Errorf("storage field:\n got  %q\n want %q", pe.Storage, strings.TrimPrefix(line, "storage: "))
	}
	if !strings.Contains(pe.String(), "  "+line+"\n") {
		t.Errorf("rendered explain misses the storage line:\n%s", pe.String())
	}

	// In-RAM engines render no storage line.
	eRAM, _, qRAM := storedSetup(t, Config{VectorSize: 1024}, OrderSorted, storedQ6Plan())
	peRAM, err := eRAM.Explain(qRAM)
	if err != nil {
		t.Fatal(err)
	}
	if peRAM.Storage != "" || strings.Contains(peRAM.String(), "storage:") {
		t.Errorf("in-RAM explain reports storage: %q", peRAM.Storage)
	}
}

// TestStoredWithOrder: reordering a stored query shares its storage plan
// (pruning is order-independent) and keeps answers identical.
func TestStoredWithOrder(t *testing.T) {
	e, _, q := storedSetup(t, Config{VectorSize: 1024, Storage: &StorageConfig{
		LatencyCycles: 100, BytesPerCycle: 32, SkipScan: true,
	}}, OrderSorted, storedQ6Plan())
	qo, err := q.WithOrder([]int{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if qo.storage != q.storage {
		t.Fatal("reordered query does not share the storage plan")
	}
	a, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Exec(qo, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if a.Qualifying != b.Qualifying || a.Sum != b.Sum {
		t.Errorf("reorder changed the answer: %d/%v vs %d/%v", b.Qualifying, b.Sum, a.Qualifying, a.Sum)
	}
}

// TestStoredGroupedAndSorted covers the non-scan execution shapes over
// storage: grouped aggregation and Top-K ordering match their in-RAM twins.
func TestStoredGroupedAndSorted(t *testing.T) {
	stcfg := &StorageConfig{LatencyCycles: 200, BytesPerCycle: 16, SkipScan: true}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("grouped/workers=%d", workers), func(t *testing.T) {
			plan := func() *Plan {
				return Scan("lineitem").
					Filter("l_discount", CmpGE, 0.05).
					GroupBy("l_quantity", "l_extendedprice")
			}
			eRAM, _, qRAM := storedSetup(t, Config{VectorSize: 1024, Workers: workers}, OrderNatural, plan())
			want, err := eRAM.Exec(qRAM, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			eST, _, qST := storedSetup(t, Config{VectorSize: 1024, Workers: workers, Storage: stcfg}, OrderNatural, plan())
			got, err := eST.Exec(qST, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Groups, got.Groups) {
				t.Errorf("groups diverge:\n ram    %v\n stored %v", want.Groups, got.Groups)
			}
			if !reflect.DeepEqual(want.Counters, got.Counters) {
				t.Errorf("PMU counters diverge")
			}
		})
		t.Run(fmt.Sprintf("sorted/workers=%d", workers), func(t *testing.T) {
			plan := func() *Plan {
				return Scan("lineitem").
					Filter("l_discount", CmpLE, 0.05).
					OrderBy("l_extendedprice", Desc).
					Limit(25).
					Sum("l_extendedprice * l_discount")
			}
			eRAM, _, qRAM := storedSetup(t, Config{VectorSize: 1024, Workers: workers}, OrderNatural, plan())
			want, err := eRAM.Exec(qRAM, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			eST, _, qST := storedSetup(t, Config{VectorSize: 1024, Workers: workers, Storage: stcfg}, OrderNatural, plan())
			got, err := eST.Exec(qST, ExecOptions{Mode: ModeFixed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Errorf("ordered rows diverge:\n ram    %v\n stored %v", want.Rows[:2], got.Rows[:2])
			}
			if !reflect.DeepEqual(want.Counters, got.Counters) {
				t.Errorf("PMU counters diverge")
			}
		})
	}
}

// TestStoredJoin covers join plans over storage: probe keys read the stored
// driving table, build sides stay in RAM, answers and counters match.
func TestStoredJoin(t *testing.T) {
	plan := func() *Plan {
		return ordersEdge(Scan("lineitem").Filter("l_quantity", CmpLT, 30), midOrderDate).
			Sum("l_extendedprice * l_discount")
	}
	for _, workers := range []int{1, 4} {
		eRAM, _, qRAM := storedSetup(t, Config{VectorSize: 1024, Workers: workers}, OrderNatural, plan())
		want, err := eRAM.Exec(qRAM, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		eST, _, qST := storedSetup(t, Config{VectorSize: 1024, Workers: workers,
			Storage: &StorageConfig{LatencyCycles: 150, BytesPerCycle: 32, SkipScan: true}}, OrderNatural, plan())
		got, err := eST.Exec(qST, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Qualifying != want.Qualifying || got.Sum != want.Sum {
			t.Errorf("workers=%d: join answers diverge: %d/%v vs %d/%v",
				workers, got.Qualifying, got.Sum, want.Qualifying, want.Sum)
		}
		if !reflect.DeepEqual(want.Counters, got.Counters) {
			t.Errorf("workers=%d: PMU counters diverge", workers)
		}
	}
}
