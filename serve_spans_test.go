package progopt

import (
	"fmt"
	"math/rand"
	"testing"
)

// serveMixPlans are the six recurring templates of the benchmark's served
// workload, over d: a progressive three-predicate scan, a progressive
// three-table join, a fixed top-10, a micro-adaptive two-predicate scan, a
// fixed grouped aggregation and a fixed three-predicate scan.
func serveMixPlans(d *Dataset) ([]*Plan, []ExecOptions) {
	const revenue = "l_extendedprice * l_discount"
	adaptive := Progressive{Interval: 5}
	plans := []*Plan{
		Scan("lineitem").
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.5))).
			Filter("l_discount", CmpGE, 0.05).
			Filter("l_quantity", CmpLT, int64(24)).Sum(revenue),
		Scan("lineitem").
			JoinOn("lineitem", "l_orderkey", "orders").
			JoinOn("lineitem", "l_partkey", "part").
			Filter("o_orderdate", CmpLE, int64(d.ShipdateCutoff(0.8))).
			Filter("p_size", CmpLE, int64(25)).
			Filter("l_quantity", CmpLT, int64(30)).Sum(revenue),
		Scan("lineitem").
			Filter("l_quantity", CmpLT, int64(24)).
			OrderBy("l_extendedprice", Desc).Limit(10),
		Scan("lineitem").
			Filter("l_discount", CmpGE, 0.05).
			Filter("l_quantity", CmpLT, int64(24)).Sum(revenue),
		Scan("lineitem").
			Filter("l_discount", CmpGE, 0.05).
			GroupBy("l_quantity", "l_extendedprice"),
		Scan("lineitem").
			Filter("l_tax", CmpLE, 0.04).
			Filter("l_quantity", CmpLT, int64(24)).
			Filter("l_shipdate", CmpLE, int64(d.ShipdateCutoff(0.3))).Sum("l_extendedprice"),
	}
	opts := []ExecOptions{
		{Mode: ModeProgressive, Progressive: adaptive},
		{Mode: ModeProgressive, Progressive: adaptive},
		{Mode: ModeFixed},
		{Mode: ModeMicroAdaptive, Progressive: adaptive},
		{Mode: ModeFixed},
		{Mode: ModeFixed},
	}
	return plans, opts
}

// TestServedSpansAreHonest serves a trace shaped like the benchmark's served
// workload — its six templates in equal numbers, shuffled, with exponential
// gaps that keep the four cores about three quarters busy, at most four
// admitted — at the seeds where a scheduler that handed cores between running
// queries reported spans that end before they start. Every ticket must arrive,
// start and finish in that order, its Cycles must fit in the span it reports
// (no wrap-around), and the busy cycles the queries' PMUs counted cannot
// exceed what the four cores could give them up to the makespan. The fair
// partitioner that re-split the cores on every admission and completion
// failed at all four seeds: adaptive queries counted more cycles than their
// spans held, and at seed 14 three spans ended before they started.
func TestServedSpansAreHonest(t *testing.T) {
	const workers, rows, queries = 4, 16 * 512, 48
	// The benchmark's mean gap of 500 000 cycles at 65 536 rows, scaled to
	// these rows.
	const meanGap = 500_000 * rows / 65_536
	for _, seed := range []int64{7, 3, 14, 20} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e, err := New(Config{Workers: workers, VectorSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			d, err := e.GenerateTPCH(rows, seed, OrderRandom)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(e, ServerConfig{MaxActive: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			plans, opts := serveMixPlans(d)
			rng := rand.New(rand.NewSource(seed))
			order := make([]int, queries)
			for i := range order {
				order[i] = i % len(plans)
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			tks := make([]*Ticket, queries)
			var now float64
			for i, k := range order {
				now += rng.ExpFloat64() * meanGap
				if tks[i], err = srv.SubmitAt(d, plans[k], opts[k], uint64(now)); err != nil {
					t.Fatal(err)
				}
			}
			var busy uint64
			for i, tk := range tks {
				r, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				sv := r.Served
				if !(sv.Arrival <= sv.Start && sv.Start <= sv.Done) {
					t.Errorf("query %d (template %d): arrival %d, start %d, done %d", i, order[i], sv.Arrival, sv.Start, sv.Done)
				}
				if r.Cycles > sv.Done-min(sv.Start, sv.Done) {
					t.Errorf("query %d (template %d): %d cycles in a span of %d..%d", i, order[i], r.Cycles, sv.Start, sv.Done)
				}
				busy += r.Counters["cycles"]
			}
			if st := srv.Stats(); busy > workers*st.MakespanCycles {
				t.Errorf("the queries' PMUs counted %d busy cycles, more than %d cores give in a makespan of %d", busy, workers, st.MakespanCycles)
			}
		})
	}
}
