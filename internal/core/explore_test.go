package core

import (
	"math"
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/datagen"
	"progopt/internal/exec"
	"progopt/internal/tpch"
)

// explorationQuery builds a scan with well-separated independent
// selectivities (10/50/90 %) already in the optimal order, so the estimator
// confirms the order every cycle and the probe trigger condition is met.
func explorationQuery(t *testing.T, n int) (*exec.Engine, *exec.Query) {
	t.Helper()
	rng := datagen.NewRNG(23)
	tb := columnar.NewTable("sep")
	tb.MustAddColumn(columnar.NewInt64("a", datagen.UniformInt64(rng, n, 0, 999)))
	tb.MustAddColumn(columnar.NewInt64("b", datagen.UniformInt64(rng, n, 0, 999)))
	tb.MustAddColumn(columnar.NewInt64("c", datagen.UniformInt64(rng, n, 0, 999)))
	e := progEngine(t)
	q := &exec.Query{
		Table: tb,
		Ops: []exec.Op{
			&exec.Predicate{Col: tb.Column("a"), Op: exec.LT, I: 100, Label: "a<100"},
			&exec.Predicate{Col: tb.Column("b"), Op: exec.LT, I: 500, Label: "b<500"},
			&exec.Predicate{Col: tb.Column("c"), Op: exec.LT, I: 900, Label: "c<900"},
		},
	}
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	return e, q
}

func TestExplorationTriggersAndPreservesResults(t *testing.T) {
	eBase, qBase := explorationQuery(t, 60000)
	want, err := eBase.Run(qBase)
	if err != nil {
		t.Fatal(err)
	}

	eProg, qProg := explorationQuery(t, 60000)
	got, st, err := runAdaptive(poolOfOne(t, eProg), qProg, Options{ReopInterval: 2, ExploreEvery: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Qualifying != want.Qualifying {
		t.Errorf("exploration changed results: %d vs %d", got.Qualifying, want.Qualifying)
	}
	if math.Abs(got.Sum-want.Sum) > math.Abs(want.Sum)*1e-9 {
		t.Error("exploration changed aggregate")
	}
	// The estimator confirms the (already optimal) order every cycle, so
	// probes must fire — and validation must revert every one of them.
	if st.Explorations == 0 {
		t.Fatal("no correlation probes fired despite stable optimal order")
	}
	if st.Reverts == 0 {
		t.Error("probes of a worse rotation were never reverted")
	}
	// Probing an optimal order must stay cheap.
	if float64(got.Cycles) > float64(want.Cycles)*1.25 {
		t.Errorf("exploration overhead too high: %d vs %d", got.Cycles, want.Cycles)
	}
}

func TestExplorationDisabledByDefault(t *testing.T) {
	d := progDataset(t, 30000).ReorderLineitem(tpch.OrderingRandom, 6)
	q, err := exec.Q6(d)
	if err != nil {
		t.Fatal(err)
	}
	e := progEngine(t)
	if err := e.BindQuery(q); err != nil {
		t.Fatal(err)
	}
	_, st, err := runAdaptive(poolOfOne(t, e), q, Options{ReopInterval: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Explorations != 0 {
		t.Errorf("%d probes fired with ExploreEvery=0", st.Explorations)
	}
}

// TestExplorationFindsCorrelatedOrder builds the §4.5 failure mode: three
// predicates where the pairwise-unobservable conditional makes the
// estimator's order stick at a suboptimal PEO. The correlation probe tries
// the rotation, validation measures it genuinely faster, and the better
// order survives.
func TestExplorationFindsCorrelatedOrder(t *testing.T) {
	const n = 120000
	rng := datagen.NewRNG(17)
	// c0: passes 60%. c1: perfectly correlated with c0 (equal values), so
	// after "c0 < 600", "c1 < 600" passes everything — but standalone it
	// also passes 60%. c2: independent 50%.
	c0 := datagen.UniformInt64(rng, n, 0, 999)
	c1 := append([]int64(nil), c0...)
	c2 := datagen.UniformInt64(rng, n, 0, 999)
	tb := columnar.NewTable("corr")
	tb.MustAddColumn(columnar.NewInt64("c0", c0))
	tb.MustAddColumn(columnar.NewInt64("c1", c1))
	tb.MustAddColumn(columnar.NewInt64("c2", c2))

	mk := func() (*exec.Engine, *exec.Query) {
		e := progEngine(t)
		q := &exec.Query{
			Table: tb,
			Ops: []exec.Op{
				&exec.Predicate{Col: tb.Column("c0"), Op: exec.LT, I: 600, Label: "c0<600"},
				&exec.Predicate{Col: tb.Column("c1"), Op: exec.LT, I: 600, Label: "c1<600"},
				&exec.Predicate{Col: tb.Column("c2"), Op: exec.LT, I: 500, Label: "c2<500"},
			},
		}
		if err := e.BindQuery(q); err != nil {
			t.Fatal(err)
		}
		return e, q
	}

	// Without exploration, starting from [c0, c1, c2].
	e1, q1 := mk()
	plain, _, err := runAdaptive(poolOfOne(t, e1), q1, Options{ReopInterval: 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	// With exploration.
	e2, q2 := mk()
	probed, st, err := runAdaptive(poolOfOne(t, e2), q2, Options{ReopInterval: 3, ExploreEvery: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if probed.Qualifying != plain.Qualifying {
		t.Fatalf("results diverged: %d vs %d", probed.Qualifying, plain.Qualifying)
	}
	if st.Explorations == 0 {
		t.Skip("no probes fired; estimator kept reordering on this data")
	}
	// Exploration must not cost more than a modest overhead, and may win.
	if float64(probed.Cycles) > float64(plain.Cycles)*1.10 {
		t.Errorf("exploration cost too much: %d vs %d cycles", probed.Cycles, plain.Cycles)
	}
}
