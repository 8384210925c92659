// Command progopt-serve drives a multi-query workload through the progopt
// workload server: a seeded trace of recurring plans (so the plan cache and
// the PMU-feedback cache see repeats) is submitted with exponentially spaced
// simulated arrivals, run one at a time on all of the engine's simulated
// cores, the admitted one of shortest expected span first (the span of its
// plan's last completed run), and summarized as throughput, p50/p95 latency,
// and cache effectiveness.
//
// Everything runs on the simulated clock, so the output — including the
// -bench JSON artifact — is bit-identical for a fixed flag set on every
// host, which CI exploits by running the smoke workload twice and diffing.
//
// Usage:
//
//	progopt-serve -quick                  # small deterministic workload
//	progopt-serve -queries 64 -workers 8  # bigger trace
//	progopt-serve -quick -bench BENCH_serve.json
//	progopt-serve -quick -cold            # feedback cache disabled
//	progopt-serve -quick -trace out.json  # Chrome/Perfetto trace of the run
//	progopt-serve -quick -metrics out.prom  # Prometheus text exposition
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"progopt"
)

// benchDoc is the machine-readable benchmark artifact (schema
// progopt-serve-bench/v1, documented in DESIGN.md). Only simulated
// quantities appear, so the document is reproducible bit for bit.
type benchDoc struct {
	Schema string      `json:"schema"`
	Config benchConfig `json:"config"`

	MakespanCycles uint64  `json:"makespan_cycles"`
	MakespanMs     float64 `json:"makespan_ms"`
	ThroughputQPS  float64 `json:"throughput_qps"`

	LatencyMs benchLatency  `json:"latency_ms"`
	PlanCache benchCache    `json:"plan_cache"`
	Feedback  benchFeedback `json:"feedback"`

	Queries []benchQuery `json:"queries"`
}

type benchConfig struct {
	Workers          int    `json:"workers"`
	VectorSize       int    `json:"vector_size"`
	Lineitems        int    `json:"lineitems"`
	Queries          int    `json:"queries"`
	Templates        int    `json:"templates"`
	MaxActive        int    `json:"max_active"`
	Seed             int64  `json:"seed"`
	Mode             string `json:"mode"`
	ReopInterval     int    `json:"reop_interval"`
	MeanGapCycles    int    `json:"mean_arrival_gap_cycles"`
	PlanCacheSize    int    `json:"plan_cache_size"`
	FeedbackDisabled bool   `json:"feedback_disabled"`
}

type benchLatency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type benchCache struct {
	Hits      int     `json:"hits"`
	Misses    int     `json:"misses"`
	Evictions int     `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

type benchFeedback struct {
	WarmStarts int `json:"warm_starts"`
	Stores     int `json:"stores"`
}

type benchQuery struct {
	ID            int     `json:"id"`
	Fingerprint   string  `json:"fingerprint"`
	ArrivalCycles uint64  `json:"arrival_cycles"`
	LatencyCycles uint64  `json:"latency_cycles"`
	LatencyMs     float64 `json:"latency_ms"`
	PlanCacheHit  bool    `json:"plan_cache_hit"`
	WarmStart     bool    `json:"warm_start"`
	Qualifying    int64   `json:"qualifying"`
	Reorders      int     `json:"reorders"`
}

func main() {
	var (
		queries   = flag.Int("queries", 32, "queries in the trace")
		templates = flag.Int("templates", 4, "distinct recurring plan templates")
		workers   = flag.Int("workers", 8, "simulated cores in the pool")
		vector    = flag.Int("vector", 2048, "vector size in tuples")
		lineitems = flag.Int("lineitems", 0, "lineitem rows (0 = 96 vectors)")
		seed      = flag.Int64("seed", 1, "trace and data seed")
		maxActive = flag.Int("maxactive", 0, "cap on admitted queries; one runs on every core while the others wait, warm-started at admission, and the shortest expected runs next, unless one was overtaken maxactive times (0 = workers)")
		gap       = flag.Int("gap", 20000, "mean inter-arrival gap in simulated cycles")
		mode      = flag.String("mode", "progressive", "execution mode: fixed, progressive, micro")
		interval  = flag.Int("interval", 5, "re-optimization interval (vectors per core)")
		planCache = flag.Int("plancache", 64, "plan cache capacity")
		cold      = flag.Bool("cold", false, "disable the PMU-feedback cache")
		quick     = flag.Bool("quick", false, "small preset: 4 workers, 512-tuple vectors, 12 queries")
		benchPath = flag.String("bench", "", "write the machine-readable benchmark artifact to this path")
		trcPath   = flag.String("trace", "", "write a Chrome trace-event JSON of the workload to this path")
		metPath   = flag.String("metrics", "", "write the Prometheus text exposition to this path ('-' = stdout)")
		verbose   = flag.Bool("v", false, "print the per-query table")
	)
	flag.Parse()
	if *quick {
		*workers = 4
		*vector = 512
		*queries = 12
		*templates = 3
	}
	if *lineitems <= 0 {
		*lineitems = 96 * *vector
	}

	if err := run(*queries, *templates, *workers, *vector, *lineitems, *seed,
		*maxActive, *gap, *mode, *interval, *planCache, *cold, *benchPath,
		*trcPath, *metPath, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(queries, templates, workers, vector, lineitems int, seed int64,
	maxActive, gap int, modeName string, interval, planCacheSize int,
	cold bool, benchPath, trcPath, metPath string, verbose bool) error {

	if queries < 1 {
		return fmt.Errorf("progopt-serve: -queries must be at least 1, got %d", queries)
	}
	if templates < 1 {
		return fmt.Errorf("progopt-serve: -templates must be at least 1, got %d", templates)
	}
	var mode progopt.Mode
	switch modeName {
	case "fixed":
		mode = progopt.ModeFixed
	case "progressive":
		mode = progopt.ModeProgressive
	case "micro":
		mode = progopt.ModeMicroAdaptive
	default:
		return fmt.Errorf("progopt-serve: unknown mode %q", modeName)
	}
	if maxActive <= 0 {
		maxActive = workers // the server's own default, resolved here so the bench artifact records the effective cap
	}

	cfg := progopt.Config{VectorSize: vector, Workers: workers}
	if trcPath != "" {
		cfg.Trace = &progopt.TraceOptions{}
	}
	eng, err := progopt.New(cfg)
	if err != nil {
		return err
	}
	ds, err := eng.GenerateTPCH(lineitems, seed, progopt.OrderRandom)
	if err != nil {
		return err
	}
	srv, err := progopt.NewServer(eng, progopt.ServerConfig{
		MaxActive:       maxActive,
		PlanCacheSize:   planCacheSize,
		DisableFeedback: cold,
	})
	if err != nil {
		return err
	}

	// Recurring templates: a worst-first predicate chain and an edge into
	// orders with a pushed-down date bound, every bound drawn from a small
	// discrete set so fingerprints repeat exactly.
	rng := rand.New(rand.NewSource(seed))
	plans := make([]*progopt.Plan, templates)
	shipSels := []float64{0.7, 0.8, 0.9}
	qtyBounds := []int{8, 10, 15, 20}
	joinSels := []float64{0.4, 0.5, 0.6}
	for i := range plans {
		ship := shipSels[rng.Intn(len(shipSels))]
		join := joinSels[rng.Intn(len(joinSels))]
		qty := qtyBounds[rng.Intn(len(qtyBounds))]
		plans[i] = progopt.Scan("lineitem").
			Filter("l_shipdate", progopt.CmpLE, int64(ds.ShipdateCutoff(ship))).Label("shipdate").
			Filter("l_discount", progopt.CmpLE, 0.05).Label("discount").
			Filter("l_quantity", progopt.CmpLT, qty).Label("quantity").
			JoinOn("lineitem", "l_orderkey", "orders").
			Filter("o_orderdate", progopt.CmpLE, int64(ds.ShipdateCutoff(join)))
	}

	opts := progopt.ExecOptions{Mode: mode, Progressive: progopt.Progressive{Interval: interval}}
	type submission struct {
		ticket  *progopt.Ticket
		arrival uint64
	}
	subs := make([]submission, queries)
	var arrival uint64
	for i := 0; i < queries; i++ {
		arrival += uint64(float64(rng.ExpFloat64() * float64(gap)))
		tk, err := srv.SubmitAt(ds, plans[rng.Intn(len(plans))], opts, arrival)
		if err != nil {
			return err
		}
		subs[i] = submission{ticket: tk, arrival: arrival}
	}

	doc := benchDoc{
		Schema: "progopt-serve-bench/v1",
		Config: benchConfig{
			Workers: workers, VectorSize: vector, Lineitems: lineitems,
			Queries: queries, Templates: templates, MaxActive: maxActive,
			Seed: seed, Mode: modeName, ReopInterval: interval,
			MeanGapCycles: gap, PlanCacheSize: planCacheSize,
			FeedbackDisabled: cold,
		},
	}
	if verbose {
		fmt.Printf("%-4s %-10s %-12s %-12s %-10s %-5s %-5s %s\n",
			"id", "fprint", "arrival", "latency", "qualifying", "hit", "warm", "reorders")
	}
	latencies := make([]float64, 0, queries)
	var latSum, latMax float64
	for i, sub := range subs {
		res, err := sub.ticket.Wait()
		if err != nil {
			return err
		}
		sv := res.Served
		latencies = append(latencies, sv.LatencyMillis)
		latSum += sv.LatencyMillis
		if sv.LatencyMillis > latMax {
			latMax = sv.LatencyMillis
		}
		doc.Queries = append(doc.Queries, benchQuery{
			ID:            i,
			Fingerprint:   sv.Fingerprint[:10],
			ArrivalCycles: sv.Arrival,
			LatencyCycles: sv.LatencyCycles,
			LatencyMs:     sv.LatencyMillis,
			PlanCacheHit:  sv.PlanCacheHit,
			WarmStart:     sv.WarmStart,
			Qualifying:    res.Qualifying,
			Reorders:      res.Stats.Reorders,
		})
		if verbose {
			fmt.Printf("%-4d %-10s %-12d %-12d %-10d %-5v %-5v %d\n",
				i, sv.Fingerprint[:10], sv.Arrival, sv.LatencyCycles,
				res.Qualifying, sv.PlanCacheHit, sv.WarmStart, res.Stats.Reorders)
		}
	}

	st := srv.Stats()
	sort.Float64s(latencies)
	doc.MakespanCycles = st.MakespanCycles
	doc.MakespanMs = st.MakespanMillis
	if st.MakespanMillis > 0 {
		doc.ThroughputQPS = float64(queries) / (st.MakespanMillis / 1000)
	}
	doc.LatencyMs = benchLatency{
		P50:  latencies[len(latencies)/2],
		P95:  latencies[(len(latencies)*95)/100],
		Mean: latSum / float64(len(latencies)),
		Max:  latMax,
	}
	lookups := st.PlanCacheHits + st.PlanCacheMisses
	doc.PlanCache = benchCache{
		Hits: st.PlanCacheHits, Misses: st.PlanCacheMisses,
		Evictions: st.PlanCacheEvictions,
	}
	if lookups > 0 {
		doc.PlanCache.HitRate = float64(st.PlanCacheHits) / float64(lookups)
	}
	doc.Feedback = benchFeedback{WarmStarts: st.FeedbackWarmStarts, Stores: st.FeedbackStores}

	fmt.Printf("workload: %d queries over %d templates, %d workers (max active %d), mode %s\n",
		queries, templates, workers, st.PeakActive, modeName)
	fmt.Printf("makespan: %d cycles (%.2f simulated ms), throughput %.0f q/s\n",
		doc.MakespanCycles, doc.MakespanMs, doc.ThroughputQPS)
	fmt.Printf("latency:  p50 %.3f ms, p95 %.3f ms, mean %.3f ms, max %.3f ms\n",
		doc.LatencyMs.P50, doc.LatencyMs.P95, doc.LatencyMs.Mean, doc.LatencyMs.Max)
	fmt.Printf("plan cache: %d hits / %d misses (%.0f%% hit rate), %d evictions\n",
		doc.PlanCache.Hits, doc.PlanCache.Misses, 100*doc.PlanCache.HitRate, doc.PlanCache.Evictions)
	fmt.Printf("feedback: %d warm starts, %d stores\n",
		doc.Feedback.WarmStarts, doc.Feedback.Stores)

	if benchPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(benchPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("bench artifact: %s\n", benchPath)
	}
	if trcPath != "" {
		tr := eng.Trace()
		if err := tr.WriteChromeFile(trcPath); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", tr.NumEvents(), trcPath)
	}
	if metPath != "" {
		if metPath == "-" {
			return srv.WriteMetrics(os.Stdout)
		}
		f, err := os.Create(metPath)
		if err != nil {
			return err
		}
		if err := srv.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: %s\n", metPath)
	}
	return nil
}
