package progopt

import (
	"math"
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
