package progopt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"testing"
)

// workersOneCase is one Exec at Workers 1 in testdata/workers1_golden.json.
type workersOneCase struct {
	Case string `json:"case"`
	Mode string `json:"mode"`
	// Result is the whole ExecResult.
	Result ExecResult `json:"result"`
	// TraceFNV is the FNV-64a of the Chrome-trace export of a traced engine
	// holding only this Exec's events, "" for an untraced one. It is kept apart
	// from Result: trace bytes may move where no result field does.
	TraceFNV string `json:"trace_fnv,omitempty"`
}

// TestWorkersOneGolden pins the Workers 1 shapes TestZeroEdgePlanIsTheOldPath
// does not run: a stored scan (zone-map skipping, compressed scan, a resident
// budget) and a traced scan in every mode, a join-graph plan and an unlimited
// OrderBy plan in progressive mode. Every field but the trace hash must stay
// byte-identical through any change that does not mean to move simulated
// behaviour; go test . -run TestWorkersOneGolden -update rewrites the file.
func TestWorkersOneGolden(t *testing.T) {
	const path = "testdata/workers1_golden.json"
	modes := []Mode{ModeFixed, ModeProgressive, ModeMicroAdaptive}
	opts := func(mode Mode) ExecOptions {
		return ExecOptions{Mode: mode, Progressive: Progressive{Interval: 3}}
	}
	var got []workersOneCase
	setup := func(cfg Config, order Ordering) (*Engine, *Dataset) {
		cfg.VectorSize, cfg.Workers = 1024, 1
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		d, err := e.GenerateTPCH(30_000, 9, order)
		if err != nil {
			t.Fatal(err)
		}
		return e, d
	}
	compile := func(e *Engine, d *Dataset, p *Plan) *Query {
		q, err := e.Compile(d, p)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	exec := func(name string, e *Engine, q *Query, mode Mode) {
		if e.Trace() != nil {
			e.Trace().Reset()
		}
		res, err := e.Exec(q, opts(mode))
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mode, err)
		}
		c := workersOneCase{Case: name, Mode: mode.String(), Result: res}
		if e.Trace() != nil {
			var buf bytes.Buffer
			if err := e.Trace().WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			c.TraceFNV = fmt.Sprintf("%016x", h.Sum64())
		}
		got = append(got, c)
	}

	// Shipdate-sorted, so the zone maps prove whole vectors empty.
	e, d := setup(Config{Storage: &StorageConfig{
		BlockRows: 2048, LatencyCycles: 400, BytesPerCycle: 16, ResidentBytes: 96 << 10,
		SkipScan: true, CompressedScan: true,
	}}, OrderSorted)
	q := compile(e, d, q6ShipdatePlan(d.ShipdateCutoff(0.3)))
	for _, mode := range modes {
		exec("stored", e, q, mode)
	}

	e, d = setup(Config{Trace: &TraceOptions{}}, OrderRandom)
	q = compile(e, d, q6Plan())
	for _, mode := range modes {
		exec("traced", e, q, mode)
	}

	e, d = setup(Config{}, OrderRandom)
	exec("join-graph", e, compile(e, d, graphTestPlan(d)), ModeProgressive)
	// Worst order first, and few enough rows to keep the file small.
	exec("ordered", e, compile(e, d, Scan("lineitem").
		Filter("l_discount", CmpGE, 0.01).
		Filter("l_quantity", CmpLT, 40).
		Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.01))).
		OrderBy("l_extendedprice", Desc).
		Sum("l_extendedprice * l_discount")), ModeProgressive)

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
	var want []workersOneCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		id := g.Case + "/" + g.Mode
		if g.Case != w.Case || g.Mode != w.Mode {
			t.Fatalf("case %d is %s, golden file has %s/%s", i, id, w.Case, w.Mode)
		}
		// Through the file's encoding, as the golden side went.
		var gr ExecResult
		if b, err := json.Marshal(g.Result); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(b, &gr); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr, w.Result) {
			t.Errorf("%s: ExecResult differs:\n got %+v\nwant %+v", id, gr, w.Result)
		}
		if g.TraceFNV != w.TraceFNV {
			t.Errorf("%s: trace hash %s, golden file has %s", id, g.TraceFNV, w.TraceFNV)
		}
	}
}
