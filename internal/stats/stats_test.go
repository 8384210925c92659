package stats

import (
	"math"
	"testing"
	"testing/quick"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

func uniformCol(t *testing.T, n int) *columnar.Column {
	t.Helper()
	rng := datagen.NewRNG(1)
	return columnar.NewInt64("u", datagen.UniformInt64(rng, n, 0, 999))
}

func TestBuildHistogramValidation(t *testing.T) {
	if _, err := BuildHistogram(nil, 0, 8); err == nil {
		t.Error("nil column accepted")
	}
	if _, err := BuildHistogram(columnar.NewInt64("e", nil), 0, 8); err == nil {
		t.Error("empty column accepted")
	}
	h, err := BuildHistogram(uniformCol(t, 100), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.total != 100 {
		t.Errorf("sampled %d rows, want all 100", h.total)
	}
}

func TestHistogramUniformEstimates(t *testing.T) {
	h, err := BuildHistogram(uniformCol(t, 100000), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, bound := range []float64{100, 250, 500, 900} {
		want := (bound + 1) / 1000
		if got := h.EstimateLE(bound); math.Abs(got-want) > 0.02 {
			t.Errorf("EstimateLE(%v) = %v, want ~%v", bound, got, want)
		}
	}
	if got := h.EstimateLE(-5); got != 0 {
		t.Errorf("below-range estimate %v", got)
	}
	if got := h.EstimateLE(5000); got != 1 {
		t.Errorf("above-range estimate %v", got)
	}
}

func TestHistogramOperators(t *testing.T) {
	h, err := BuildHistogram(uniformCol(t, 100000), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	le := h.Estimate(exec.LE, 500)
	ge := h.Estimate(exec.GE, 500)
	if math.Abs(le+ge-1) > 0.01 {
		t.Errorf("LE+GE = %v, want ~1", le+ge)
	}
	eq := h.Estimate(exec.EQ, 500)
	if eq <= 0 || eq > 0.05 {
		t.Errorf("EQ estimate %v implausible for 1000-value domain", eq)
	}
	if lt := h.Estimate(exec.LT, 500); lt > le {
		t.Error("LT estimate above LE")
	}
}

func TestHistogramComplementProperty(t *testing.T) {
	h, err := BuildHistogram(uniformCol(t, 50000), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		bound := float64(raw % 1000)
		le := h.Estimate(exec.LE, bound)
		gt := h.Estimate(exec.GT, bound)
		return le >= 0 && le <= 1 && math.Abs(le+gt-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramMonotone(t *testing.T) {
	h, err := BuildHistogram(uniformCol(t, 50000), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for b := 0.0; b <= 1000; b += 25 {
		got := h.EstimateLE(b)
		if got < prev-1e-12 {
			t.Fatalf("EstimateLE not monotone at %v: %v after %v", b, got, prev)
		}
		prev = got
	}
}

// TestStaleSampleGoesWrong is the premise of the whole paper: a histogram
// built from the bulk-load prefix misestimates a weakly clustered column.
func TestStaleSampleGoesWrong(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 100000, Seed: 4})
	ship := d.Lineitem.Column("l_shipdate")
	// Sample the first 5% (early ship dates only).
	h, err := BuildHistogram(ship, 5000, 64)
	if err != nil {
		t.Fatal(err)
	}
	cut := d.ShipdateCutoff(0.5) // true selectivity 50%
	est := h.EstimateLE(float64(cut))
	if est < 0.95 {
		t.Errorf("stale prefix sample estimated %v; expected ~1 (everything early qualifies)", est)
	}
	// A full-column histogram gets it right.
	hFull, err := BuildHistogram(ship, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := hFull.EstimateLE(float64(cut)); math.Abs(got-0.5) > 0.05 {
		t.Errorf("full histogram estimated %v, want ~0.5", got)
	}
}

func TestCatalogAndStaticOrder(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 50000, Seed: 5})
	d = d.ReorderLineitem(tpch.OrderingRandom, 6)
	cat, err := BuildCatalog(d.Lineitem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cat.hists["l_quantity"] == nil {
		t.Fatal("catalog missing column")
	}
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	perm, sels, err := cat.StaticOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != len(q.Ops) {
		t.Fatalf("perm %v wrong length", perm)
	}
	// The static order must be ascending in the estimated selectivities.
	for i := 1; i < len(perm); i++ {
		if sels[perm[i]] < sels[perm[i-1]]-1e-12 {
			t.Fatalf("static order not ascending: %v (sels %v)", perm, sels)
		}
	}
	// On random (stationary) data with full-table stats, the static order
	// should agree with true ascending selectivity on the first pick.
	trueSels := make([]float64, len(q.Ops))
	for i, op := range q.Ops {
		trueSels[i] = op.(*exec.Predicate).TrueSelectivity()
	}
	bestTrue := 0
	for i := range trueSels {
		if trueSels[i] < trueSels[bestTrue] {
			bestTrue = i
		}
	}
	if perm[0] != bestTrue {
		t.Errorf("static optimizer picked %d first, true best is %d (est %v, true %v)",
			perm[0], bestTrue, sels, trueSels)
	}
	// Estimated and true selectivities agree within histogram resolution.
	for i := range trueSels {
		if math.Abs(sels[i]-trueSels[i]) > 0.05 {
			t.Errorf("predicate %d: estimated %v, true %v", i, sels[i], trueSels[i])
		}
	}
}

func TestStaticOrderNoPredicates(t *testing.T) {
	d := tpch.MustGenerate(tpch.Config{Lineitems: 1000, Seed: 5})
	cat, err := BuildCatalog(d.Lineitem, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := &exec.Query{Table: d.Lineitem, Ops: []exec.Op{&fakeOp{}}}
	if _, _, err := cat.StaticOrder(q); err == nil {
		t.Error("predicate-less query accepted")
	}
}

type fakeOp struct{}

func (f *fakeOp) Name() string                { return "fake" }
func (f *fakeOp) Width() int                  { return 8 }
func (f *fakeOp) Eval(_ *cpu.CPU, _ int) bool { return true }
func (f *fakeOp) EvalBatch(_ *cpu.CPU, _ int, sel, out []int32) []int32 {
	return append(out, sel...)
}
