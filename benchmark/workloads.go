package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"progopt"
)

// The four workloads, in BENCHMARK.json's order. README.md has the rationale
// and the profile shares behind each.
var workloadNames = []string{"scan_shift", "join_probe", "serve_mix", "report_stored_traced"}

// scale selects data sizes: "full" is the benchmark of record, "tiny" is the
// in-process smoke test. Iteration time scales with it; nothing else does.
type scale struct {
	rows         int // lineitems of the three Exec workloads
	serveRows    int // lineitems of serve_mix
	serveQueries int // submissions per serve_mix iteration
}

var scales = map[string]scale{
	"full": {rows: 1_000_000, serveRows: 65_536, serveQueries: 128},
	"tiny": {rows: 20_000, serveRows: 4_096, serveQueries: 12},
}

// queryObs is one executed (plan, mode) pair.
type queryObs struct {
	spec int // index into the instance's specs
	mode progopt.Mode
	res  progopt.ExecResult
}

// iterObs is everything one iteration yields: the answers and simulated
// telemetry of its queries and the host cost of its timed region.
type iterObs struct {
	queries []queryObs
	// tuples is the number of driving-table tuples the queries executed over.
	tuples int64
	// servers holds the final counters of each workload server that ran
	// (serve_mix only).
	servers []progopt.ServerStats
	// events is the number of simulated-clock trace events recorded.
	events int

	wall                time.Duration
	mallocs, allocBytes uint64
}

// timed measures the host cost of a region. ReadMemStats stops the world, so
// it runs outside the wall-clock interval on both ends.
type timed struct {
	t0 time.Time
	ms runtime.MemStats
}

func startTimed() *timed {
	t := &timed{}
	runtime.ReadMemStats(&t.ms)
	t.t0 = time.Now()
	return t
}

func (t *timed) stop(o *iterObs) {
	o.wall = time.Since(t.t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.mallocs = after.Mallocs - t.ms.Mallocs
	o.allocBytes = after.TotalAlloc - t.ms.TotalAlloc
}

// instance is one set-up workload: engine, data and compiled queries.
type instance interface {
	specs() []querySpec
	// shape returns the driving table's row count and the vector size.
	shape() (rows, vectorSize int)
	// classes is the number of distinct iterations the workload cycles
	// through (serve_mix: its arrival traces; the others: 1).
	classes() int
	// iterate runs one iteration of the given class. The first call per
	// class on a fresh instance is the one whose simulated results are
	// reported: it starts from fresh engine state and so repeats bit for bit.
	iterate(class int, sp *spanRec) (iterObs, error)
	// crossCheck executes the (plan, mode) pairs that iterate does not but
	// that the cross-mode comparison needs: ModeFixed for every plan the
	// workload runs adaptively.
	crossCheck() ([]queryObs, error)
	close()
}

var modeSpan = map[progopt.Mode]string{
	progopt.ModeFixed:         "progopt.exec_fixed",
	progopt.ModeProgressive:   "progopt.exec_progressive",
	progopt.ModeMicroAdaptive: "progopt.exec_micro",
}

// step is one Exec call of an iteration.
type step struct {
	spec int
	mode progopt.Mode
}

// execDef declares a workload that calls Engine.Exec directly.
type execDef struct {
	cfg      progopt.Config
	order    progopt.Ordering
	interval int
	// specs builds the queries; cut maps a selectivity to a shipdate bound of
	// the generated data.
	specs func(cut func(float64) int64) []querySpec
	steps []step
	// extra are crossCheck's steps.
	extra []step
	// chrome resets the simulated-clock recorder before and exports it after
	// each iteration.
	chrome bool
}

func q6Filters(cut func(float64) int64, lo, hi float64) []filterSpec {
	return []filterSpec{
		{"l_quantity", progopt.CmpLT, int64(24)},
		{"l_discount", progopt.CmpGE, 0.05},
		{"l_discount", progopt.CmpLE, 0.07},
		{"l_shipdate", progopt.CmpGE, cut(lo)},
		{"l_shipdate", progopt.CmpLE, cut(hi)},
	}
}

const revenue = "l_extendedprice * l_discount"

var execDefs = map[string]execDef{
	// The paper's core case: on shipdate-sorted data the two shipdate bounds
	// change selectivity along the scan, and the plan is declared
	// least-selective-first, so the reoptimizer keeps acting.
	"scan_shift": {
		cfg:      progopt.Config{Workers: 1, VectorSize: 1024},
		order:    progopt.OrderSorted,
		interval: 10,
		specs: func(cut func(float64) int64) []querySpec {
			return []querySpec{{name: "q6_window", filters: q6Filters(cut, 0.4, 0.6), sum: revenue}}
		},
		steps: []step{{0, progopt.ModeFixed}, {0, progopt.ModeProgressive}, {0, progopt.ModeMicroAdaptive}},
	},
	// Random gathers into build sides larger than the simulated L3.
	"join_probe": {
		cfg:      progopt.Config{Workers: 4, VectorSize: 1024},
		order:    progopt.OrderRandom,
		interval: 10,
		specs: func(cut func(float64) int64) []querySpec {
			return []querySpec{{
				name: "graph4",
				edges: [][3]string{
					{"lineitem", "l_orderkey", "orders"},
					{"lineitem", "l_partkey", "part"},
					{"orders", "o_custkey", "customer"},
				},
				filters: []filterSpec{
					{"o_orderdate", progopt.CmpLE, cut(0.8)},
					{"l_quantity", progopt.CmpLT, int64(30)},
					{"p_size", progopt.CmpLE, int64(25)},
					{"c_acctbal", progopt.CmpGE, 0.0},
				},
				sum: revenue,
			}}
		},
		steps: []step{{0, progopt.ModeFixed}, {0, progopt.ModeProgressive}},
	},
	// The storage tier, zone maps, hash aggregation, sort and the
	// simulated-clock recorder, all on.
	"report_stored_traced": {
		cfg: progopt.Config{
			Workers: 4, VectorSize: 1024,
			Storage: &progopt.StorageConfig{
				LatencyCycles: 400, BytesPerCycle: 16, ResidentBytes: 4 << 20,
				SkipScan: true, CompressedScan: true,
			},
			Trace: &progopt.TraceOptions{},
		},
		order:    progopt.OrderSorted,
		interval: 10,
		specs: func(cut func(float64) int64) []querySpec {
			return []querySpec{
				{name: "range_scan", sum: revenue, filters: []filterSpec{
					{"l_shipdate", progopt.CmpLE, cut(0.15)},
					{"l_discount", progopt.CmpGE, 0.05},
					{"l_quantity", progopt.CmpLT, int64(24)},
				}},
				{name: "group_partkey", groupKey: "l_partkey", groupVal: "l_extendedprice", filters: []filterSpec{
					{"l_shipdate", progopt.CmpGE, cut(0.5)},
				}},
				{name: "top100_price", orderCol: "l_extendedprice", limit: 100, filters: []filterSpec{
					{"l_quantity", progopt.CmpLT, int64(24)},
				}},
			}
		},
		steps:  []step{{0, progopt.ModeProgressive}, {1, progopt.ModeFixed}, {2, progopt.ModeFixed}},
		extra:  []step{{0, progopt.ModeFixed}},
		chrome: true,
	},
}

// execInstance is a set-up execDef.
type execInstance struct {
	def  execDef
	eng  *progopt.Engine
	sp   []querySpec
	qs   []*progopt.Query
	rows int
}

// setupExec builds the engine, generates the data and compiles the queries.
// Each shipdate cutoff is computed once here: Dataset.ShipdateCutoff sorts the
// column on every call.
func setupExec(def execDef, rows int, seed int64, toggleTrace bool, sp *spanRec) (*execInstance, error) {
	if toggleTrace {
		if def.cfg.Trace == nil {
			def.cfg.Trace = &progopt.TraceOptions{}
		} else {
			def.cfg.Trace, def.chrome = nil, false
		}
	}
	root := sp.begin(-1, "setup")
	defer sp.end(root)
	eng, err := progopt.New(def.cfg)
	if err != nil {
		return nil, err
	}
	g := sp.begin(root, "tpch.generate")
	ds, err := eng.GenerateTPCH(rows, seed, def.order)
	sp.end(g)
	if err != nil {
		eng.Close()
		return nil, err
	}
	x := &execInstance{def: def, eng: eng, rows: rows}
	x.sp = def.specs(func(sel float64) int64 { return int64(ds.ShipdateCutoff(sel)) })
	for i := range x.sp {
		x.sp[i].seed = seed
	}
	for _, s := range x.sp {
		c := sp.begin(root, "progopt.compile")
		q, err := eng.Compile(ds, s.plan())
		sp.end(c)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		x.qs = append(x.qs, q)
	}
	return x, nil
}

func (x *execInstance) specs() []querySpec { return x.sp }
func (x *execInstance) shape() (int, int)  { return x.rows, x.def.cfg.VectorSize }
func (x *execInstance) classes() int       { return 1 }
func (x *execInstance) close()             { x.eng.Close() }

func (x *execInstance) run(steps []step, parent int, sp *spanRec) ([]queryObs, error) {
	out := make([]queryObs, 0, len(steps))
	for _, st := range steps {
		s := sp.begin(parent, modeSpan[st.mode])
		res, err := x.eng.Exec(x.qs[st.spec], progopt.ExecOptions{
			Mode:        st.mode,
			Progressive: progopt.Progressive{Interval: x.def.interval},
		})
		sp.end(s)
		if err != nil {
			return nil, fmt.Errorf("exec %s %s: %w", x.sp[st.spec].name, st.mode, err)
		}
		out = append(out, queryObs{spec: st.spec, mode: st.mode, res: res})
	}
	return out, nil
}

func (x *execInstance) iterate(_ int, sp *spanRec) (iterObs, error) {
	var obs iterObs
	it := sp.begin(-1, "iteration")
	defer sp.end(it)
	t := startTimed()
	tr := x.eng.Trace()
	tr.Reset()
	var err error
	if obs.queries, err = x.run(x.def.steps, it, sp); err != nil {
		return obs, err
	}
	obs.events = tr.NumEvents()
	if x.def.chrome {
		s := sp.begin(it, "trace.write_chrome")
		err = tr.WriteChrome(io.Discard)
		sp.end(s)
		if err != nil {
			return obs, err
		}
	}
	t.stop(&obs)
	obs.tuples = int64(len(x.def.steps)) * int64(x.rows)
	return obs, nil
}

func (x *execInstance) crossCheck() ([]queryObs, error) {
	return x.run(x.def.extra, -1, nil)
}

// serveTemplate is one recurring query of serve_mix.
type serveTemplate struct {
	spec func(cut func(float64) int64) querySpec
	mode progopt.Mode
}

var serveTemplates = []serveTemplate{
	{mode: progopt.ModeProgressive, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "scan3_progressive", sum: revenue, filters: []filterSpec{
			{"l_shipdate", progopt.CmpLE, cut(0.5)},
			{"l_discount", progopt.CmpGE, 0.05},
			{"l_quantity", progopt.CmpLT, int64(24)},
		}}
	}},
	{mode: progopt.ModeProgressive, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "graph3_progressive", sum: revenue,
			edges: [][3]string{{"lineitem", "l_orderkey", "orders"}, {"lineitem", "l_partkey", "part"}},
			filters: []filterSpec{
				{"o_orderdate", progopt.CmpLE, cut(0.8)},
				{"p_size", progopt.CmpLE, int64(25)},
				{"l_quantity", progopt.CmpLT, int64(30)},
			}}
	}},
	{mode: progopt.ModeFixed, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "top10_price", orderCol: "l_extendedprice", limit: 10, filters: []filterSpec{
			{"l_quantity", progopt.CmpLT, int64(24)},
		}}
	}},
	{mode: progopt.ModeMicroAdaptive, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "scan2_micro", sum: revenue, filters: []filterSpec{
			{"l_discount", progopt.CmpGE, 0.05},
			{"l_quantity", progopt.CmpLT, int64(24)},
		}}
	}},
	{mode: progopt.ModeFixed, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "group_quantity", groupKey: "l_quantity", groupVal: "l_extendedprice", filters: []filterSpec{
			{"l_discount", progopt.CmpGE, 0.05},
		}}
	}},
	{mode: progopt.ModeFixed, spec: func(cut func(float64) int64) querySpec {
		return querySpec{name: "scan3_fixed", sum: "l_extendedprice", filters: []filterSpec{
			{"l_tax", progopt.CmpLE, 0.04},
			{"l_quantity", progopt.CmpLT, int64(24)},
			{"l_shipdate", progopt.CmpLE, cut(0.3)},
		}}
	}},
}

const (
	serveInterval = 5
	serveActive   = 4
	// serveMeanGap is the mean of the exponential arrival gaps, in simulated
	// cycles: an open loop on the simulated clock, at about three quarters of
	// the rate the four simulated cores sustain. (At 350 000 the server runs
	// some 10 % over capacity and latency measures the length of the trace.)
	serveMeanGap = 500_000
	// serveTraces is the number of arrival traces, each over its own data
	// set, that one run cycles through. Percentiles of 128 latencies move by
	// 15-30 % from seed to seed at any load; pooled over eight traces they
	// hold still.
	serveTraces = 8
)

var serveConfig = progopt.Config{Workers: 4, VectorSize: 512}

// arrival is one submission of a serve_mix trace.
type arrival struct {
	tmpl int
	at   uint64
}

// serveTrace is one class of serve_mix iterations: a data seed, the
// templates' plans over that data, and the arrival trace.
type serveTrace struct {
	seed     int64
	plans    []*progopt.Plan
	arrivals []arrival
}

// serveInstance is a set-up serve_mix. Every iteration builds a fresh engine
// and data set outside the timed region: a second Server on a reused Engine
// does not repeat the first one's makespan, fresh engines repeat exactly.
type serveInstance struct {
	cfg     progopt.Config
	rows    int
	sp      []querySpec // serveTraces x len(serveTemplates), trace-major
	traces  []serveTrace
	waiters int
}

func setupServe(sc scale, seed int64, toggleTrace bool, sp *spanRec) (*serveInstance, error) {
	root := sp.begin(-1, "setup")
	defer sp.end(root)
	x := &serveInstance{cfg: serveConfig, rows: sc.serveRows}
	if toggleTrace {
		x.cfg.Trace = &progopt.TraceOptions{}
	}
	// The load generator never uses more goroutines than the host has CPUs.
	x.waiters = min(runtime.NumCPU(), 2)
	eng, err := progopt.New(x.cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for k := 0; k < serveTraces; k++ {
		tr := serveTrace{seed: seed*serveTraces + int64(k)}
		// The cutoffs need the data; iterations regenerate the same data
		// from the same seed, so they are computed on a throw-away copy.
		g := sp.begin(root, "tpch.generate")
		ds, err := eng.GenerateTPCH(x.rows, tr.seed, progopt.OrderRandom)
		sp.end(g)
		if err != nil {
			return nil, err
		}
		cuts := map[float64]int64{}
		cut := func(sel float64) int64 {
			if _, ok := cuts[sel]; !ok {
				cuts[sel] = int64(ds.ShipdateCutoff(sel))
			}
			return cuts[sel]
		}
		for _, t := range serveTemplates {
			s := t.spec(cut)
			s.seed = tr.seed
			x.sp = append(x.sp, s)
			tr.plans = append(tr.plans, s.plan())
		}
		// Every template appears equally often; the seed decides the order
		// and the gaps. A free template choice would make the mix itself,
		// not the system, the largest source of variation between seeds.
		rng := rand.New(rand.NewSource(tr.seed))
		order := make([]int, sc.serveQueries)
		for i := range order {
			order[i] = i % len(serveTemplates)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var now float64
		for _, t := range order {
			now += rng.ExpFloat64() * serveMeanGap
			tr.arrivals = append(tr.arrivals, arrival{tmpl: t, at: uint64(now)})
		}
		x.traces = append(x.traces, tr)
	}
	return x, nil
}

func (x *serveInstance) specs() []querySpec { return x.sp }
func (x *serveInstance) shape() (int, int)  { return x.rows, x.cfg.VectorSize }
func (x *serveInstance) classes() int       { return len(x.traces) }
func (x *serveInstance) close()             {}

func serveOpts(tmpl int) progopt.ExecOptions {
	return progopt.ExecOptions{
		Mode:        serveTemplates[tmpl].mode,
		Progressive: progopt.Progressive{Interval: serveInterval},
	}
}

func (x *serveInstance) iterate(class int, sp *spanRec) (iterObs, error) {
	var obs iterObs
	tr := x.traces[class]
	it := sp.begin(-1, "iteration")
	defer sp.end(it)
	eng, err := progopt.New(x.cfg)
	if err != nil {
		return obs, err
	}
	defer eng.Close()
	g := sp.begin(it, "tpch.generate")
	ds, err := eng.GenerateTPCH(x.rows, tr.seed, progopt.OrderRandom)
	sp.end(g)
	if err != nil {
		return obs, err
	}
	// The previous iteration's engine and data are garbage by now. Collecting
	// them here, outside the timed region, starts every iteration from the
	// heap a fresh process would have and keeps peak memory from depending on
	// when the collector happens to run.
	runtime.GC()

	t := startTimed()
	root := sp.begin(it, "serve")
	srv, err := progopt.NewServer(eng, progopt.ServerConfig{MaxActive: serveActive})
	if err != nil {
		return obs, err
	}
	defer srv.Close()
	tickets := make([]*progopt.Ticket, len(tr.arrivals))
	seen := make([]bool, len(serveTemplates))
	for i, a := range tr.arrivals {
		name := "service.submit_miss"
		if seen[a.tmpl] {
			name = "service.submit_hit"
		}
		seen[a.tmpl] = true
		s := sp.begin(root, name)
		tickets[i], err = srv.SubmitAt(ds, tr.plans[a.tmpl], serveOpts(a.tmpl), a.at)
		sp.end(s)
		if err != nil {
			return obs, fmt.Errorf("submit %s: %w", x.sp[a.tmpl].name, err)
		}
	}
	results := make([]progopt.ExecResult, len(tickets))
	errs := make([]error, x.waiters)
	var wg sync.WaitGroup
	for w := 0; w < x.waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tickets); i += x.waiters {
				s := sp.begin(root, "service.wait")
				res, err := tickets[i].Wait()
				sp.end(s)
				if err != nil {
					errs[w] = fmt.Errorf("wait %s: %w", x.sp[tr.arrivals[i].tmpl].name, err)
					return
				}
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return obs, err
		}
	}
	obs.servers = []progopt.ServerStats{srv.Stats()}
	s := sp.begin(root, "service.write_metrics")
	err = srv.WriteMetrics(io.Discard)
	sp.end(s)
	if err != nil {
		return obs, err
	}
	srv.Close()
	sp.end(root)
	t.stop(&obs)

	obs.events = eng.Trace().NumEvents()
	obs.tuples = int64(len(tr.arrivals)) * int64(x.rows)
	for i, a := range tr.arrivals {
		obs.queries = append(obs.queries, queryObs{
			spec: class*len(serveTemplates) + a.tmpl,
			mode: serveTemplates[a.tmpl].mode,
			res:  results[i],
		})
	}
	return obs, nil
}

// crossCheck runs every adaptive template directly, in ModeFixed and in its
// own mode, on a fresh engine per data set.
func (x *serveInstance) crossCheck() ([]queryObs, error) {
	var out []queryObs
	for k, tr := range x.traces {
		base := k * len(serveTemplates)
		def := execDef{cfg: serveConfig, order: progopt.OrderRandom, interval: serveInterval,
			specs: func(func(float64) int64) []querySpec { return x.sp[base : base+len(serveTemplates)] }}
		for i, t := range serveTemplates {
			if t.mode != progopt.ModeFixed {
				def.extra = append(def.extra, step{i, progopt.ModeFixed}, step{i, t.mode})
			}
		}
		e, err := setupExec(def, x.rows, tr.seed, false, nil)
		if err != nil {
			return nil, err
		}
		obs, err := e.crossCheck()
		e.close()
		if err != nil {
			return nil, err
		}
		for _, q := range obs {
			q.spec += base
			out = append(out, q)
		}
	}
	return out, nil
}

// setupWorkload builds a fresh instance of the named workload. toggleTrace
// flips Config.Trace relative to the workload's definition.
func setupWorkload(name string, sc scale, seed int64, toggleTrace bool, sp *spanRec) (instance, error) {
	if name == "serve_mix" {
		return setupServe(sc, seed, toggleTrace, sp)
	}
	def, ok := execDefs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return setupExec(def, sc.rows, seed, toggleTrace, sp)
}
