package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"

	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/hw/pmu"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/adaptive_golden.json from this build's drivers")

const goldenPath = "testdata/adaptive_golden.json"

// goldenRow pins everything one adaptive run decided and produced. The file
// was captured when the serial drivers were loops of their own, before they
// became the stepper's one-vector case, and is the only record of their
// semantics: a change that moves any field here changed behaviour.
type goldenRow struct {
	Config            string
	Cycles            uint64
	Qualifying        int64
	SumBits           uint64
	Counters          string // FNV-64a of the run's PMU delta
	Optimizations     int
	Reorders          int
	Reverts           int
	Explorations      int
	ImplSwitches      int
	ConvergedAtCycles uint64
	FinalOrder        []int
	Ledger            Ledger
	Trace             string // FNV-64a of the run's Chrome-trace bytes
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func countersHash(s pmu.Sample) string {
	var b []byte
	for ev := pmu.Event(0); ev < pmu.NumEvents; ev++ {
		b = fmt.Appendf(b, "%d,", s.Get(ev))
	}
	return fnvHex(b)
}

// goldenRun executes one cell of the matrix: a fixed-order warm-up run (so
// the adaptive run starts on cores whose clocks are not zero, as every rig
// and served query after the first does), then the adaptive driver — its own
// cold start — with per-core and optimizer trace tracks attached.
func goldenRun(t *testing.T, q *exec.Query, micro bool, workers int, opt Options) goldenRow {
	t.Helper()
	const vs = 512
	rec := trace.New()
	cores := make([]*trace.Track, workers)
	for i := range cores {
		cores[i] = rec.NewTrack(fmt.Sprintf("core %d", i))
	}
	opt.Trace = rec.NewTrack("optimizer")

	p, err := exec.NewParallel(cpu.ScaledXeon(), workers, vs)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(q); err != nil {
		t.Fatal(err)
	}
	p.SetTrace(cores)
	res, st, err := runAdaptive(p, q, opt, micro)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return goldenRow{
		Cycles:            res.Cycles,
		Qualifying:        res.Qualifying,
		SumBits:           math.Float64bits(res.Sum),
		Counters:          countersHash(res.Counters),
		Optimizations:     st.Optimizations,
		Reorders:          st.Reorders,
		Reverts:           st.Reverts,
		Explorations:      st.Explorations,
		ImplSwitches:      st.ImplSwitches,
		ConvergedAtCycles: st.ConvergedAtCycles,
		FinalOrder:        st.FinalOrder,
		Ledger:            st.Ledger,
		Trace:             fnvHex(buf.Bytes()),
	}
}

// TestAdaptiveGolden replays the decision matrix — progressive and
// micro-adaptive × Workers {1, 4} × ReopInterval {1, 2, 5, 10, 75} ×
// ExploreEvery {0, 2} × lineitem ordering {random, shipdate-sorted} × rows
// {40 000, 100 001 (partial last vector)} on Q6 started at its reversed
// order — and compares every run to the committed golden file.
// go test ./internal/core -run TestAdaptiveGolden -update rewrites it.
func TestAdaptiveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("160 simulated runs")
	}
	var got []goldenRow
	for _, rows := range []int{40000, 100001} {
		base := tpch.MustGenerate(tpch.Config{Lineitems: rows, Seed: 11})
		for _, ord := range []tpch.Ordering{tpch.OrderingRandom, tpch.OrderingShipdateSorted} {
			d := base.ReorderLineitem(ord, 5)
			q6, err := exec.Q6(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.MustEngine(cpu.MustNew(cpu.ScaledXeon()), 512).BindQuery(q6); err != nil {
				t.Fatal(err)
			}
			q, err := q6.WithOrder([]int{4, 3, 2, 1, 0})
			if err != nil {
				t.Fatal(err)
			}
			for _, micro := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					for _, interval := range []int{1, 2, 5, 10, 75} {
						for _, explore := range []int{0, 2} {
							row := goldenRun(t, q, micro, workers, Options{ReopInterval: interval, ExploreEvery: explore})
							mode := "progressive"
							if micro {
								mode = "micro"
							}
							row.Config = fmt.Sprintf("%s/workers=%d/interval=%d/explore=%d/%s/rows=%d",
								mode, workers, interval, explore, ord, rows)
							got = append(got, row)
						}
					}
				}
			}
		}
	}
	if *updateGolden {
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
		if err := os.WriteFile(goldenPath, append(out, "]\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
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
