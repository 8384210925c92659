package progopt

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ of the tests -run selects from this build")

// zeroEdgeCase is one plan on one engine in testdata/zero_edge_golden.json.
type zeroEdgeCase struct {
	Plan    string   `json:"plan"`
	Workers int      `json:"workers"`
	OpNames []string `json:"op_names"`
	Explain string   `json:"explain"`
	// Fingerprint is computed at generation 0: a data set's own generation
	// depends on how many the test binary made before it.
	Fingerprint string `json:"fingerprint"`
	// Results holds the whole ExecResult per mode name.
	Results map[string]ExecResult `json:"results"`
}

// zeroEdgePlan is a named plan that declares no JoinOn edge.
type zeroEdgePlan struct {
	name string
	plan *Plan
}

// zeroEdgePlans are a filter scan, a grouped aggregation and a top-k ordering,
// in the order the test compiles them: sort regions and group tables take
// simulated addresses as they are compiled.
func zeroEdgePlans(d *Dataset) []zeroEdgePlan {
	return []zeroEdgePlan{
		{"q6", q6Plan()},
		{"grouped", Scan("lineitem").Filter("l_discount", CmpGE, 0.02).GroupBy("l_quantity", "l_extendedprice")},
		{"topk", sortTestPlan(d, 40)},
	}
}

// TestZeroEdgePlanIsTheOldPath pins plans without join edges to what the
// edge-less compiler (the second compile path, deleted in PR 22) produced:
// operator names, Explain text, fingerprint and the whole ExecResult in every
// mode at Workers 1 and 4. The golden file was captured at the parent of the
// commit that routed every plan through compileGraph; the grouped plan's
// Workers 4 cycles and counters were regenerated when the merge barrier was
// partitioned across the cores, and its cycles and memory counters at both
// worker counts when a dense domain's simulated table became a direct-indexed
// array.
func TestZeroEdgePlanIsTheOldPath(t *testing.T) {
	const path = "testdata/zero_edge_golden.json"
	var got []zeroEdgeCase
	for _, workers := range []int{1, 4} {
		e, err := New(Config{VectorSize: 1024, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		d, err := e.GenerateTPCH(30_000, 5, OrderNatural)
		if err != nil {
			t.Fatal(err)
		}
		for _, zp := range zeroEdgePlans(d) {
			name, p := zp.name, zp.plan
			q, err := e.Compile(d, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ex, err := e.Explain(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fp, err := p.fingerprint(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := zeroEdgeCase{
				Plan: name, Workers: workers, OpNames: q.OpNames(), Explain: ex.String(),
				Fingerprint: fp.String(),
				Results:     map[string]ExecResult{},
			}
			for _, mode := range []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive} {
				if name == "grouped" && mode != ModeFixed {
					continue // grouped plans run in fixed order only
				}
				res, err := e.Exec(q, ExecOptions{Mode: mode, Progressive: Progressive{Interval: 3}})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, mode, err)
				}
				c.Results[mode.String()] = res
			}
			got = append(got, c)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []zeroEdgeCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		id := fmt.Sprintf("%s/workers=%d", g.Plan, g.Workers)
		if g.Plan != w.Plan || g.Workers != w.Workers {
			t.Fatalf("case %d is %s, golden file has %s/workers=%d", i, id, w.Plan, w.Workers)
		}
		if !reflect.DeepEqual(g.OpNames, w.OpNames) {
			t.Errorf("%s: OpNames %v, want %v", id, g.OpNames, w.OpNames)
		}
		if g.Explain != w.Explain {
			t.Errorf("%s: Explain\n%s\nwant\n%s", id, g.Explain, w.Explain)
		}
		if g.Fingerprint != w.Fingerprint {
			t.Errorf("%s: fingerprint %s, want %s", id, g.Fingerprint, w.Fingerprint)
		}
		for mode, wr := range w.Results {
			if gr := g.Results[mode]; !reflect.DeepEqual(gr, wr) {
				t.Errorf("%s/%s: ExecResult differs from the edge-less compiler's:\n got %+v\nwant %+v", id, mode, gr, wr)
			}
		}
		if len(g.Results) != len(w.Results) {
			t.Errorf("%s: %d modes ran, golden file has %d", id, len(g.Results), len(w.Results))
		}
	}
}
