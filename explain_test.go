package progopt

import (
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(30000, 15, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rows != 30000 || plan.Table != "lineitem" {
		t.Fatalf("plan header wrong: %+v", plan)
	}
	if len(plan.Ops) != 5 {
		t.Fatalf("%d ops", len(plan.Ops))
	}
	// The first operator sees the whole table.
	if plan.Ops[0].EstimatedInput != 1 {
		t.Error("first op input fraction != 1")
	}
	// Input fractions decrease monotonically.
	for i := 1; i < len(plan.Ops); i++ {
		if plan.Ops[i].EstimatedInput > plan.Ops[i-1].EstimatedInput+1e-12 {
			t.Error("input fractions not non-increasing")
		}
		if plan.Ops[i].Kind != "predicate" {
			t.Errorf("op %d kind %q", i, plan.Ops[i].Kind)
		}
	}
	// Predicted output within a factor of the real run (correlated shipdate
	// and discount predicates break independence, so allow slack).
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedQualifying <= 0 {
		t.Fatal("no predicted output")
	}
	ratio := float64(res.Qualifying) / plan.PredictedQualifying
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("predicted %v vs actual %d (ratio %v)", plan.PredictedQualifying, res.Qualifying, ratio)
	}
	// Predicted BNT within 2x of measured. Q6's shipdate and discount
	// predicate pairs share columns, so the independence products the
	// explain uses overestimate the survivors — exactly the §4.5
	// correlation error the progressive optimizer corrects at runtime.
	if measured := float64(res.Counters["br_not_taken"]); plan.PredictedBNT < measured*0.5 || plan.PredictedBNT > measured*2 {
		t.Errorf("predicted BNT %v vs measured %v", plan.PredictedBNT, measured)
	}
	s := plan.String()
	if !strings.Contains(s, "lineitem") || !strings.Contains(s, "predicted:") {
		t.Errorf("rendering incomplete: %q", s)
	}
}

// TestExplainFusedGolden pins the fused-pipeline rendering: batch engines
// report the single-pass kernel chain the plan collapses into, unfused and
// scalar engines report nothing.
func TestExplainFusedGolden(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 16, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, ordersEdge(Scan("lineitem").Filter("l_quantity", CmpLT, 25), midOrderDate))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := "filter+join [fused]"; plan.Pipeline != want {
		t.Errorf("pipeline = %q, want %q", plan.Pipeline, want)
	}
	if s := plan.String(); !strings.Contains(s, "\n  pipeline: filter+join [fused]\n") {
		t.Errorf("rendering lacks the pipeline line:\n%s", s)
	}

	q6, err := e.Compile(d, q6Plan())
	if err != nil {
		t.Fatal(err)
	}
	plan6, err := e.Explain(q6)
	if err != nil {
		t.Fatal(err)
	}
	if want := "filter+filter+filter+filter+filter+agg [fused]"; plan6.Pipeline != want {
		t.Errorf("Q6 pipeline = %q, want %q", plan6.Pipeline, want)
	}

	qg, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.05).
		GroupBy("l_quantity", "l_extendedprice"))
	if err != nil {
		t.Fatal(err)
	}
	plang, err := e.Explain(qg)
	if err != nil {
		t.Fatal(err)
	}
	if want := "filter+group [fused]"; plang.Pipeline != want {
		t.Errorf("grouped pipeline = %q, want %q", plang.Pipeline, want)
	}

	// Unfused and scalar engines run per-operator kernels: no pipeline line.
	for _, cfg := range []refPath{{noFuse: true}, {scalar: true}} {
		eu, err := newRef(Config{VectorSize: 1024}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		du, err := eu.GenerateTPCH(20000, 16, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		qu, err := eu.Compile(du, q6Plan())
		if err != nil {
			t.Fatal(err)
		}
		planu, err := eu.Explain(qu)
		if err != nil {
			t.Fatal(err)
		}
		if planu.Pipeline != "" {
			t.Errorf("%+v: pipeline = %q, want none", cfg, planu.Pipeline)
		}
		if s := planu.String(); strings.Contains(s, "pipeline:") {
			t.Errorf("%+v: rendering has a pipeline line:\n%s", cfg, s)
		}
	}
}

func TestExplainWithJoin(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(20000, 16, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, ordersEdge(Scan("lineitem").Filter("l_quantity", CmpLT, 25), midOrderDate))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops[0].Kind != "predicate" || plan.Ops[1].Kind != "join" {
		t.Errorf("op kinds wrong: %+v", plan.Ops)
	}
	if js := plan.Ops[1].TrueSelectivity; js < 0.4 || js > 0.6 {
		t.Errorf("join selectivity %v, want ~0.5", js)
	}
}
