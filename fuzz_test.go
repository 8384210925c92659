package progopt

import (
	"math"
	"reflect"
	"testing"
)

// Fuzz vocabularies: every real table and column of the generated data set
// plus deliberately bogus names, so the mutator reaches both the happy paths
// and every compile-time validation branch.
var (
	fuzzTables = []string{"lineitem", "orders", "part", "customer", "nation", "galaxy"}
	fuzzCols   = []string{
		"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate",
		"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice",
		"p_partkey", "p_size", "p_retailprice",
		"c_custkey", "c_acctbal", "c_nationkey", "c_mktsegment",
		"n_nationkey", "n_regionkey",
		"nonesuch",
	}
	fuzzSums = []string{
		"l_extendedprice", "l_extendedprice * l_discount", "l_quantity",
		"o_totalprice", "nonesuch", "l_shipdate * nonesuch",
	}
	fuzzCmps = []Cmp{CmpLE, CmpLT, CmpGE, CmpGT, CmpEQ}
)

// fuzzPlan decodes a byte string into a plan: byte 0 picks the driving
// table, then each opcode byte plus its fixed operands appends one builder
// step (join edge, int/float filter, order-by, sum, costed filter, group-by).
// Operands past the end of the input read as zero, so every byte string
// decodes to some plan; whether it compiles is exactly what the fuzz target
// is probing.
func fuzzPlan(data []byte) *Plan {
	if len(data) == 0 {
		return Scan("lineitem")
	}
	p := Scan(fuzzTables[int(data[0])%len(fuzzTables)])
	i := 1
	next := func() int {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return int(b)
	}
	table := func() string { return fuzzTables[next()%len(fuzzTables)] }
	col := func() string { return fuzzCols[next()%len(fuzzCols)] }
	for steps := 0; i < len(data) && steps < 12; steps++ {
		switch next() % 7 {
		case 0:
			p = p.JoinOn(table(), col(), table())
		case 1:
			p = p.Filter(col(), fuzzCmps[next()%len(fuzzCmps)], int64(next())*64)
		case 2:
			p = p.Filter(col(), fuzzCmps[next()%len(fuzzCmps)], (float64(next())-128)*40)
		case 3:
			if next()%2 == 0 {
				p = p.OrderBy(col())
			} else {
				p = p.OrderBy(col(), Desc)
			}
			if n := next(); n%2 == 0 {
				p = p.Limit(n % 32)
			}
		case 4:
			p = p.Sum(fuzzSums[next()%len(fuzzSums)])
		case 5:
			// Two operands, like the Join step this opcode used to spell: the
			// committed corpus keeps decoding its other steps.
			p = p.FilterCost(col(), CmpLE, int64(next())*64, 20)
		case 6:
			p = p.GroupBy(col(), col())
		}
	}
	return p
}

// fuzzExec compiles and runs the plan on a fresh engine with the given
// worker count. A compile error returns (zero, error); an exec error fails
// the test — compilation is the validation boundary, so everything that
// compiles must run.
func fuzzExec(t *testing.T, workers int, plan *Plan) (ExecResult, error) {
	t.Helper()
	e, err := New(Config{VectorSize: 512, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d, err := e.GenerateTPCH(4096, 7, OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(d, plan)
	if err != nil {
		return ExecResult{}, err
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		t.Fatalf("workers=%d: compiled plan failed to execute: %v", workers, err)
	}
	return res, nil
}

// FuzzPlanCompile drives randomly shaped join graphs, predicates, order-by
// and aggregation specs through Compile. Every input must either fail
// compilation with a validation error — identical at every worker count —
// or execute with results bit-identical at Workers 1 and 4.
func FuzzPlanCompile(f *testing.F) {
	// The scrambled 4-table join graph with pushed-down filters and a sum
	// (the joingraph_test determinism fixture, byte-encoded).
	f.Add([]byte{0,
		0, 1, 7, 3, // JoinOn(orders, o_custkey, customer)
		0, 0, 0, 1, // JoinOn(lineitem, l_orderkey, orders)
		0, 0, 1, 2, // JoinOn(lineitem, l_partkey, part)
		1, 2, 1, 1, // Filter(l_quantity < 64)
		2, 14, 0, 200, // float filter on c_acctbal
		4, 1, // Sum(l_extendedprice * l_discount)
	})
	// An expensive filter beside a plain one, no edge (testdata's
	// seed-legacy-join, named for what opcode 5 spelled before).
	f.Add([]byte{0, 5, 1, 128, 1, 2, 1, 1, 4, 0})
	// An expensive filter and one edge (seed-mixed-join-joinon).
	f.Add([]byte{0, 5, 1, 128, 0, 0, 0, 1})
	// Unknown driving table.
	f.Add([]byte{5, 1, 2, 1, 1})
	// Disconnected edge (customer→nation without reaching customer).
	f.Add([]byte{0, 0, 3, 15, 4})
	// Duplicate edge into the same table.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1})
	// Non-integer key column (l_extendedprice as FK).
	f.Add([]byte{0, 0, 0, 3, 1})
	// Integer column whose values are not valid row ids (l_quantity→nation).
	f.Add([]byte{0, 0, 0, 2, 4})
	// Order-by + limit over a graph, group-by, and an empty plan.
	f.Add([]byte{0, 0, 0, 0, 1, 3, 1, 3, 8, 6, 0, 2})
	f.Add([]byte{0, 6, 0, 2})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		plan := fuzzPlan(data)
		r1, err1 := fuzzExec(t, 1, plan)
		r4, err4 := fuzzExec(t, 4, plan)
		if (err1 == nil) != (err4 == nil) {
			t.Fatalf("compile verdict differs by worker count: workers=1 %v, workers=4 %v", err1, err4)
		}
		if err1 != nil {
			if err1.Error() == "" || err1.Error() != err4.Error() {
				t.Fatalf("compile errors differ: %q vs %q", err1, err4)
			}
			return
		}
		if r1.Qualifying != r4.Qualifying {
			t.Fatalf("qualifying differs: workers=1 %d, workers=4 %d", r1.Qualifying, r4.Qualifying)
		}
		if math.Float64bits(r1.Sum) != math.Float64bits(r4.Sum) {
			t.Fatalf("sum differs: workers=1 %v, workers=4 %v", r1.Sum, r4.Sum)
		}
		if !reflect.DeepEqual(r1.Rows, r4.Rows) {
			t.Fatalf("ordered rows differ across worker counts (%d vs %d rows)", len(r1.Rows), len(r4.Rows))
		}
		if !reflect.DeepEqual(r1.Groups, r4.Groups) {
			t.Fatalf("groups differ across worker counts (%d vs %d groups)", len(r1.Groups), len(r4.Groups))
		}
	})
}
