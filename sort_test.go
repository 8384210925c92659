package progopt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortTestPlan is the shared ordered plan of the bit-identity matrix: two
// filters, a two-key ordering, and a carried aggregate.
func sortTestPlan(d *Dataset, limit int) *Plan {
	p := Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.7))).
		Filter("l_discount", CmpGE, 0.03).
		OrderBy("l_quantity", Desc).
		OrderBy("l_extendedprice").
		Sum("l_extendedprice * l_discount")
	if limit >= 0 {
		p.Limit(limit)
	}
	return p
}

// TestSortBitIdentity pins the acceptance criterion: ordered output —
// including the float values carried through the sort — plus Qualifying and
// the aggregate Sum are bit-identical across Workers {1,4}, the scalar row
// loop and the batch kernels, limit present and absent, and all three
// execution modes.
func TestSortBitIdentity(t *testing.T) {
	for _, limit := range []int{-1, 40} {
		var ref *ExecResult
		for _, workers := range []int{1, 4} {
			for _, scalar := range []bool{false, true} {
				for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
					name := fmt.Sprintf("limit=%d/workers=%d/scalar=%v/%s", limit, workers, scalar, mode)
					e, err := newRef(Config{VectorSize: 512, Workers: workers}, refPath{scalar: scalar})
					if err != nil {
						t.Fatal(err)
					}
					d, err := e.GenerateTPCH(24_000, 19, OrderRandom)
					if err != nil {
						t.Fatal(err)
					}
					q, err := e.Compile(d, sortTestPlan(d, limit))
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 5}})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(res.Rows) == 0 {
						t.Fatalf("%s: no ordered output", name)
					}
					if ref == nil {
						ref = &res
						continue
					}
					if res.Qualifying != ref.Qualifying {
						t.Errorf("%s: qualifying %d vs %d", name, res.Qualifying, ref.Qualifying)
					}
					if res.Sum != ref.Sum {
						t.Errorf("%s: sum %v vs %v (must be bit-identical)", name, res.Sum, ref.Sum)
					}
					if !reflect.DeepEqual(res.Rows, ref.Rows) {
						t.Errorf("%s: ordered rows diverge", name)
					}
				}
			}
		}
	}
}

// TestHandedOutResultsAreTheCallers: the ordered rows Exec returns and the
// trace summary Explain returns belong to the caller. A later Exec on the same
// engine, of another ordered plan or of the same plan in another mode, leaves
// them as they were, and what one caller writes into a summary no later
// Explain returns.
func TestHandedOutResultsAreTheCallers(t *testing.T) {
	e, err := New(Config{VectorSize: 512, Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(24_000, 19, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := e.Compile(d, sortTestPlan(d, 40))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Compile(d, Scan("lineitem").
		Filter("l_discount", CmpLE, 0.05).
		OrderBy("l_extendedprice", Desc).
		Sum("l_quantity").
		Limit(40))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := e.Exec(q1, ExecOptions{Mode: ModeProgressive, Progressive: Progressive{Interval: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := e.Explain(q1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]OrderedRow, len(res1.Rows))
	for i, r := range res1.Rows {
		rows[i] = OrderedRow{Row: r.Row, Keys: append([]float64(nil), r.Keys...), Value: r.Value}
	}
	aggs := append([]TraceAgg(nil), ex1.Trace...)

	res2, err := e.Exec(q2, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res2.Rows, rows) {
		t.Fatal("the second plan orders the same rows: it cannot show aliasing")
	}
	if !reflect.DeepEqual(res1.Rows, rows) {
		t.Error("a second ordered Exec changed the first result's Rows")
	}

	if _, err := e.Exec(q1, ExecOptions{Mode: ModeFixed}); err != nil {
		t.Fatal(err)
	}
	ex2, err := e.Explain(q1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ex2.Trace, aggs) {
		t.Fatal("the fixed-order run summarizes like the progressive one: it cannot show aliasing")
	}
	if !reflect.DeepEqual(ex1.Trace, aggs) {
		t.Errorf("a second traced Exec changed the first Explain's trace summary:\n got %+v\nwant %+v", ex1.Trace, aggs)
	}
	ex2.Trace[0].Count = -1
	if ex3, err := e.Explain(q1); err != nil || ex3.Trace[0].Count == -1 {
		t.Errorf("a caller's write into its trace summary reached the next Explain (%v)", err)
	}
}

// TestSortAgainstSliceStable fuzzes the public surface against an oracle
// independent of any engine code: qualifying rows recomputed from the raw
// columns and ordered with sort.SliceStable on the keys alone — stability
// supplies exactly the row-order tie-break the operator implements.
func TestSortAgainstSliceStable(t *testing.T) {
	e, err := New(Config{VectorSize: 1024, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.GenerateTPCH(20_000, 29, OrderRandom)
	if err != nil {
		t.Fatal(err)
	}
	qty := d.d.Lineitem.Column("l_quantity").I64()
	disc := d.d.Lineitem.Column("l_discount").F64()
	price := d.d.Lineitem.Column("l_extendedprice").F64()
	keyCols := []string{"l_quantity", "l_extendedprice", "l_discount", "l_shipdate", "l_orderkey"}
	rng := rand.New(rand.NewSource(77))
	for it := 0; it < 10; it++ {
		qtyBound := int64(5 + rng.Intn(45))
		nKeys := 1 + rng.Intn(2)
		type key struct {
			name string
			desc bool
		}
		keys := make([]key, nKeys)
		p := Scan("lineitem").Filter("l_quantity", CmpLT, qtyBound)
		for i := range keys {
			keys[i] = key{name: keyCols[rng.Intn(len(keyCols))], desc: rng.Intn(2) == 1}
			if keys[i].desc {
				p.OrderBy(keys[i].name, Desc)
			} else {
				p.OrderBy(keys[i].name)
			}
		}
		limit := -1
		if rng.Intn(2) == 1 {
			limit = rng.Intn(200)
			p.Limit(limit)
		}
		p.Sum("l_extendedprice * l_discount")
		q, err := e.Compile(d, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
		if err != nil {
			t.Fatal(err)
		}

		var want []int64
		for r := range qty {
			if qty[r] < qtyBound {
				want = append(want, int64(r))
			}
		}
		val := func(row int64, name string) float64 {
			return d.d.Lineitem.Column(name).Float64At(int(row))
		}
		sort.SliceStable(want, func(a, b int) bool {
			for _, k := range keys {
				va, vb := val(want[a], k.name), val(want[b], k.name)
				if va != vb {
					return (va < vb) != k.desc
				}
			}
			return false
		})
		if limit >= 0 && len(want) > limit {
			want = want[:limit]
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("iteration %d: %d rows, reference %d", it, len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if row.Row != want[i] {
				t.Fatalf("iteration %d: position %d row %d, reference %d (keys %v limit %d)",
					it, i, row.Row, want[i], keys, limit)
			}
			for ki, k := range keys {
				if row.Keys[ki] != val(row.Row, k.name) {
					t.Errorf("iteration %d: row %d key %d = %v, want %v", it, row.Row, ki, row.Keys[ki], val(row.Row, k.name))
				}
			}
			if wantVal := price[row.Row] * disc[row.Row]; row.Value != wantVal {
				t.Errorf("iteration %d: row %d carried value %v, want %v", it, row.Row, row.Value, wantVal)
			}
		}
	}
}

// TestSortCompileValidation pins Compile's order-by error checks.
func TestSortCompileValidation(t *testing.T) {
	e := testEngine(t)
	d, err := e.GenerateTPCH(5000, 8, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		plan *Plan
	}{
		{"unknown column", Scan("lineitem").Filter("l_quantity", CmpLT, 10).OrderBy("l_nope")},
		{"cross-table column", Scan("lineitem").Filter("l_quantity", CmpLT, 10).OrderBy("o_orderdate")},
		{"negative limit", Scan("lineitem").Filter("l_quantity", CmpLT, 10).OrderBy("l_quantity").Limit(-1)},
		{"limit without order", Scan("lineitem").Filter("l_quantity", CmpLT, 10).Limit(5)},
		{"order with group", Scan("lineitem").Filter("l_discount", CmpGE, 0.05).
			GroupBy("l_quantity", "l_extendedprice").OrderBy("l_quantity")},
		{"two directions", Scan("lineitem").Filter("l_quantity", CmpLT, 10).OrderBy("l_quantity", Asc, Desc)},
	}
	for _, tc := range cases {
		if _, err := e.Compile(d, tc.plan); err == nil {
			t.Errorf("%s: Compile accepted the plan", tc.name)
		}
	}
	// Limit(0) is valid and yields an empty ordered output.
	q, err := e.Compile(d, Scan("lineitem").Filter("l_quantity", CmpLT, 10).OrderBy("l_quantity").Limit(0))
	if err != nil {
		t.Fatalf("Limit(0) rejected: %v", err)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("Limit(0) emitted %d rows", len(res.Rows))
	}
	if res.Qualifying == 0 {
		t.Error("Limit(0) suppressed the scan itself")
	}
}

// TestSortFingerprintTerms: ordering participates in the canonical plan
// fingerprint — keys, their precedence, directions, and the limit all
// distinguish plans; chaining order of unrelated steps still does not.
func TestSortFingerprintTerms(t *testing.T) {
	terms := func(p *Plan) string {
		buf, spans, err := p.fingerprintTerms(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := make([]string, len(spans))
		for i, sp := range spans {
			ts[i] = string(buf[sp[0]:sp[1]])
		}
		sort.Strings(ts)
		return fmt.Sprint(ts)
	}
	base := func() *Plan { return Scan("lineitem").Filter("l_quantity", CmpLT, 10) }
	a := terms(base().OrderBy("l_quantity").OrderBy("l_discount"))
	variants := map[string]string{
		"no order":       terms(base()),
		"key precedence": terms(base().OrderBy("l_discount").OrderBy("l_quantity")),
		"direction":      terms(base().OrderBy("l_quantity", Desc).OrderBy("l_discount")),
		"limit":          terms(base().OrderBy("l_quantity").OrderBy("l_discount").Limit(3)),
	}
	for name, v := range variants {
		if v == a {
			t.Errorf("%s: fingerprint terms did not change", name)
		}
	}
	if terms(base().OrderBy("l_quantity").OrderBy("l_discount").Limit(3)) !=
		terms(base().OrderBy("l_quantity").OrderBy("l_discount").Limit(3)) {
		t.Error("identical sorted plans disagree")
	}
}
