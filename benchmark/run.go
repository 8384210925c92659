package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"progopt"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	out      string
}

// report is the outcome of one run, written to <out>/ and read by -compare.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Scale      string                 `json:"scale"`
	Trace      bool                   `json:"trace"`
	Iterations int                    `json:"iterations"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

// tally counts checked operations. An error, an oracle mismatch and a
// cross-mode or cross-iteration answer mismatch are all failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// checker holds the oracle's answers and the first iteration's results that
// later iterations must repeat.
type checker struct {
	*tally
	specs   []querySpec
	answers []answer
	// ref holds, per iteration class, the first iteration's results.
	ref [][]queryObs
	// drift is the largest |Δcycles| of one (query, mode) between the first
	// iteration and a later one on the same instance.
	drift uint64
}

// first checks every result of the first pass (one iteration per class) and
// the cross-check runs against the oracle, and every result of one plan
// against the others: all modes must agree on Qualifying and on every bit of
// Sum.
func (c *checker) first(pass []iterObs, cross []queryObs) {
	all := append([]queryObs(nil), cross...)
	for _, obs := range pass {
		c.ref = append(c.ref, obs.queries)
		all = append(all, obs.queries...)
	}
	seen := map[int]queryObs{}
	for _, q := range all {
		c.attempted++
		s := c.specs[q.spec]
		if msg := c.answers[q.spec].check(s, q.res); msg != "" {
			c.fail("%s %s: %s", s.name, q.mode, msg)
			continue
		}
		if p, ok := seen[q.spec]; !ok {
			seen[q.spec] = q
		} else if p.res.Qualifying != q.res.Qualifying || math.Float64bits(p.res.Sum) != math.Float64bits(q.res.Sum) {
			c.fail("%s: %s answered (%d, %v), %s answered (%d, %v)", s.name,
				p.mode, p.res.Qualifying, p.res.Sum, q.mode, q.res.Qualifying, q.res.Sum)
		}
	}
}

// repeat checks a later iteration against the first of its class.
func (c *checker) repeat(class int, obs iterObs) {
	for i, q := range obs.queries {
		c.attempted++
		r := c.ref[class][i].res
		if q.res.Qualifying != r.Qualifying || math.Float64bits(q.res.Sum) != math.Float64bits(r.Sum) {
			c.fail("%s %s: answer changed between iterations: (%d, %v) then (%d, %v)",
				c.specs[q.spec].name, q.mode, r.Qualifying, r.Sum, q.res.Qualifying, q.res.Sum)
		}
		d := q.res.Cycles - r.Cycles
		if r.Cycles > q.res.Cycles {
			d = r.Cycles - q.res.Cycles
		}
		c.drift = max(c.drift, d)
	}
}

// exactMetrics derives every metric that must repeat bit for bit from the
// first pass on a fresh instance (simulated values need no host warm-up) and
// the cross-check runs.
func exactMetrics(pass []iterObs, cross []queryObs, vectorSize int) map[string]float64 {
	var first iterObs
	for _, obs := range pass {
		first.queries = append(first.queries, obs.queries...)
		first.servers = append(first.servers, obs.servers...)
		first.tuples += obs.tuples
		first.events += obs.events
	}
	m := map[string]float64{}
	counters := map[string]float64{}
	var cycles, qualifying float64
	var lat, queueWait []float64
	var opt, reorders, reverts, converged float64
	var st progopt.StorageStats
	var storedVectors, underflows float64
	rows := first.tuples / int64(len(first.queries))
	msPerCycle := ratio(first.queries[0].res.Millis, float64(first.queries[0].res.Cycles))
	for _, q := range first.queries {
		r := q.res
		qualifying += float64(r.Qualifying)
		for k, v := range r.Counters {
			counters[k] += float64(v)
		}
		if sv := r.Served; sv != nil {
			// A served query's cost is its busy core-cycles. Its
			// ExecResult.Cycles is not usable: the server can report
			// Start after Done, and the span then wraps around.
			cycles += float64(r.Counters["cycles"])
			lat = append(lat, sv.LatencyMillis)
			queueWait = append(queueWait, float64(sv.Start-sv.Arrival)*msPerCycle)
			if sv.Done < sv.Start {
				underflows++
			}
		} else {
			cycles += float64(r.Cycles)
			lat = append(lat, r.Millis)
		}
		opt += float64(r.Stats.Optimizations)
		reorders += float64(r.Stats.Reorders)
		reverts += float64(r.Stats.Reverts)
		converged += float64(r.Stats.ConvergedAtCycles)
		if s := r.Storage; s != nil {
			st.BlocksTotal += s.BlocksTotal
			st.BlocksPruned += s.BlocksPruned
			st.VectorsSkipped += s.VectorsSkipped
			st.BlockFetches += s.BlockFetches
			st.BlockHits += s.BlockHits
			st.BytesFetched += s.BytesFetched
			st.Evictions += s.Evictions
			st.StallCycles += s.StallCycles
			st.PlainBytes, st.EncodedBytes = s.PlainBytes, s.EncodedBytes
			storedVectors += math.Ceil(float64(rows) / float64(vectorSize))
		}
	}
	m["sim_cycles_per_tuple"] = cycles / float64(first.tuples)
	m["sim_latency_p50_ms"] = median(lat)
	m["sim_latency_p90_ms"] = quantile(lat, 0.9)

	// Speed-ups compare the modes of one compiled query executed directly.
	// Served results run on shared cores and are left out.
	byMode := map[progopt.Mode]map[int]float64{}
	for _, q := range append(append([]queryObs(nil), first.queries...), cross...) {
		if q.res.Served != nil {
			continue
		}
		if byMode[q.mode] == nil {
			byMode[q.mode] = map[int]float64{}
		}
		byMode[q.mode][q.spec] = float64(q.res.Cycles)
	}
	speedup := func(mode progopt.Mode) float64 {
		var fixed, adaptive float64
		for spec, c := range byMode[mode] {
			if f, ok := byMode[progopt.ModeFixed][spec]; ok {
				fixed += f
				adaptive += c
			}
		}
		return ratio(fixed, adaptive)
	}
	m["sim_speedup_vs_fixed"] = speedup(progopt.ModeProgressive)
	m["core.sim_speedup_micro_vs_fixed"] = speedup(progopt.ModeMicroAdaptive)

	m["hw.cache.loads"] = counters["l1_access"]
	m["hw.cache.l1_miss_ratio"] = ratio(counters["l1_miss"], counters["l1_access"])
	m["hw.cache.l2_miss_ratio"] = ratio(counters["l2_miss"], counters["l2_access"])
	m["hw.cache.l3_miss_ratio"] = ratio(counters["l3_miss"], counters["l3_demand_access"])
	m["hw.cache.mem_lines"] = counters["mem_access"]
	m["hw.branch.branches"] = counters["br_cond"]
	m["hw.branch.mispredict_ratio"] = ratio(counters["br_mp"], counters["br_cond"])
	m["hw.cpu.instructions"] = counters["instructions"]
	m["hw.cpu.sim_ipc"] = ratio(counters["instructions"], counters["cycles"])
	m["exec.qualifying_ratio"] = qualifying / float64(first.tuples)
	m["core.optimizations"] = opt
	m["core.reorders"] = reorders
	m["core.reverts"] = reverts
	m["core.converged_at_cycles"] = converged

	var sv progopt.ServerStats
	for _, st := range first.servers {
		sv.Submitted += st.Submitted
		sv.PlanCacheHits += st.PlanCacheHits
		sv.PlanCacheMisses += st.PlanCacheMisses
		sv.FeedbackWarmStarts += st.FeedbackWarmStarts
		sv.PeakActive = max(sv.PeakActive, st.PeakActive)
		sv.MakespanMillis += st.MakespanMillis / float64(len(first.servers))
	}
	m["service.plan_cache_hit_ratio"] = ratio(float64(sv.PlanCacheHits), float64(sv.PlanCacheHits+sv.PlanCacheMisses))
	m["service.warm_start_ratio"] = ratio(float64(sv.FeedbackWarmStarts), float64(sv.Submitted))
	m["service.peak_active"] = float64(sv.PeakActive)
	m["service.sim_queue_wait_p50_ms"] = median(queueWait)
	m["service.sim_makespan_ms"] = sv.MakespanMillis
	m["service.sim_span_underflows"] = underflows

	m["storage.blocks_pruned_ratio"] = ratio(float64(st.BlocksPruned), float64(st.BlocksTotal))
	m["storage.vectors_skipped_ratio"] = ratio(float64(st.VectorsSkipped), storedVectors)
	m["storage.tier_hit_ratio"] = ratio(float64(st.BlockHits), float64(st.BlockHits+st.BlockFetches))
	m["storage.evictions"] = float64(st.Evictions)
	m["storage.bytes_fetched"] = float64(st.BytesFetched)
	m["storage.stall_cycles"] = float64(st.StallCycles)
	m["columnar.encoded_bytes_per_plain_byte"] = ratio(float64(st.EncodedBytes), float64(st.PlainBytes))
	m["trace.events_per_iter"] = float64(first.events) / float64(len(pass))
	return m
}

// phase is one instance run for a stretch of time.
type phase struct {
	// pass holds the first iteration of every class.
	pass  []iterObs
	exact map[string]float64
	// walls (seconds), mallocs and allocBytes hold, per iteration class, one
	// value per measured iteration; the warm-up iteration is not among them.
	walls, mallocs, allocBytes [][]float64
	// ref holds one reference-kernel sample per iteration.
	ref        []float64
	iterations int
	drift      uint64
	// cpuPerWall is process CPU seconds per wall second over the measured
	// iterations: the host parallelism actually obtained.
	cpuPerWall float64
}

// tuples and queries are the work of one iteration (the same in every class).
func (ph *phase) tuples() float64  { return float64(ph.pass[0].tuples) }
func (ph *phase) queries() float64 { return float64(len(ph.pass[0].queries)) }

// fastQuantile is the quantile of an iteration's wall times that stands for
// the iteration's cost. The sandbox's interference is additive and comes in
// bursts: between 20 s windows of one process the median iteration moves by
// up to 40 %, the fastest decile by a few per cent.
const fastQuantile = 0.1

// wall is the cost of one iteration in reference seconds (refkernel.go): the
// fast quantile of each class's iterations, averaged over the first n
// classes, divided by the host's slowdown during the phase.
func (ph *phase) wall(n int) float64 {
	var sum float64
	for _, w := range ph.walls[:n] {
		sum += quantile(w, fastQuantile)
	}
	return sum / float64(n) / hostSlowdown(ph.ref)
}

// perIter averages the per-class medians of a per-iteration count.
func perIter(byClass [][]float64) float64 {
	var sum float64
	for _, v := range byClass {
		sum += median(v)
	}
	return sum / float64(len(byClass))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase cycles through the instance's first k iteration classes until dur
// has passed and every class has been timed. The first pass (one iteration
// per class) is the checked and reported one; the very first iteration is
// also the host warm-up and is not timed. With profile set, the timed
// iterations run under the CPU profiler.
func runPhase(inst instance, k int, ck *checker, sp *spanRec, dur time.Duration, profile *bytes.Buffer) (*phase, error) {
	_, vectorSize := inst.shape()
	ph := &phase{walls: make([][]float64, k), mallocs: make([][]float64, k), allocBytes: make([][]float64, k)}
	var cross []queryObs
	addToPass := func(obs iterObs) {
		ph.pass = append(ph.pass, obs)
		if len(ph.pass) == k {
			ck.first(ph.pass, cross)
			ph.exact = exactMetrics(ph.pass, cross, vectorSize)
		}
	}
	sp.setIteration(0)
	obs, err := inst.iterate(0, sp)
	if err != nil {
		return nil, err
	}
	if cross, err = inst.crossCheck(); err != nil {
		return nil, err
	}
	addToPass(obs)
	runtime.GC()
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	t0, cpu0 := time.Now(), processCPU()
	for it := 1; it <= k || time.Since(t0) < dur; it++ {
		class := it % k
		ph.ref = append(ph.ref, refSample())
		sp.setIteration(it)
		if obs, err = inst.iterate(class, sp); err != nil {
			return nil, err
		}
		if it < k {
			addToPass(obs)
		} else {
			ck.repeat(class, obs)
		}
		ph.iterations++
		ph.walls[class] = append(ph.walls[class], obs.wall.Seconds())
		ph.mallocs[class] = append(ph.mallocs[class], float64(obs.mallocs))
		ph.allocBytes[class] = append(ph.allocBytes[class], float64(obs.allocBytes))
	}
	ph.cpuPerWall = ratio(float64(processCPU()-cpu0), float64(time.Since(t0)))
	ph.drift = ck.drift
	return ph, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// Set-up is repeated at least minSetups times and until setupBudget has
// passed (at most maxSetups times): a set-up of a few tens of milliseconds
// needs more repeats than one of a second to read steady. The fastest
// quartile is reported, for the reason given at fastQuantile.
const (
	minSetups     = 3
	maxSetups     = 10
	setupBudget   = 2 * time.Second
	setupQuantile = 0.25
)

// runWorkload executes one run and returns its report. Without trace it
// measures the end-to-end metrics; with trace it produces the per-layer ones
// from an untraced reference phase, a traced and profiled phase, a phase with
// Config.Trace flipped, and the layer probes.
func runWorkload(rc runConfig) (*report, error) {
	sc, ok := scales[rc.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", rc.scale)
	}
	rep := &report{Workload: rc.workload, Seed: rc.seed, Scale: rc.scale, Trace: rc.trace, Metrics: map[string]metricValue{}}
	tl := &tally{}
	dur := time.Duration(rc.seconds * float64(time.Second))

	var setups, setupRef []float64
	var inst instance
	var err error
	for t0 := time.Now(); len(setups) < minSetups || (time.Since(t0) < setupBudget && len(setups) < maxSetups); {
		if inst != nil {
			// Drop the previous copy before building the next one, so that
			// peak memory is one set-up's, whatever the collector's timing.
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		setupRef = append(setupRef, refSample())
		t1 := time.Now()
		if inst, err = setupWorkload(rc.workload, sc, rc.seed, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t1).Seconds())
		if rc.trace {
			break // setup_s is an end-to-end metric
		}
	}
	defer func() { inst.close() }()

	specs := inst.specs()
	rows, _ := inst.shape()
	answers := make([]answer, len(specs))
	oracles := map[int64]*oracleData{}
	for i, s := range specs {
		if oracles[s.seed] == nil {
			if oracles[s.seed], err = newOracleData(rows, s.seed); err != nil {
				return nil, err
			}
		}
		if answers[i], err = oracles[s.seed].answer(s); err != nil {
			return nil, err
		}
	}
	oracles = nil // the oracle's copy of the data is garbage before measuring starts
	newChecker := func() *checker { return &checker{tally: tl, specs: specs, answers: answers} }

	set := func(defs []metricDef, vals map[string]float64) error {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		return nil
	}

	if !rc.trace {
		ph, err := runPhase(inst, inst.classes(), newChecker(), nil, dur, nil)
		if err != nil {
			return nil, err
		}
		vals := ph.exact
		vals["host_mtuples_per_s"] = ph.tuples() / ph.wall(len(ph.pass)) / 1e6
		vals["host_queries_per_s"] = ph.queries() / ph.wall(len(ph.pass))
		vals["host_allocs_per_iter"] = perIter(ph.mallocs)
		vals["host_alloc_mb_per_iter"] = perIter(ph.allocBytes) / 1e6
		vals["host_peak_rss_mb"] = peakRSSMB()
		vals["setup_s"] = quantile(setups, setupQuantile) / hostSlowdown(setupRef)
		fmt.Printf("# %s: host slowdown %.3f while measuring, %.3f while setting up (1 = the reference host; host times are divided by it)\n",
			rc.workload, hostSlowdown(ph.ref), hostSlowdown(setupRef))
		rep.Iterations = ph.iterations
		if err := set(endToEnd, vals); err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed, rep.Failures = tl.attempted, tl.failed, tl.failures
		return rep, nil
	}

	// Untraced reference.
	ref, err := runPhase(inst, inst.classes(), newChecker(), nil, dur*3/10, nil)
	if err != nil {
		return nil, err
	}
	inst.close()

	// Traced: host spans around every facade call, CPU profile over the
	// measured iterations.
	sp := newSpanRec()
	if inst, err = setupWorkload(rc.workload, sc, rc.seed, false, sp); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	tr, err := runPhase(inst, inst.classes(), newChecker(), sp, dur*9/20, &prof)
	if err != nil {
		return nil, err
	}
	inst.close()

	// Config.Trace flipped: the simulated-clock recorder's host cost, and one
	// more proof that it is a pure observer.
	if inst, err = setupWorkload(rc.workload, sc, rc.seed, true, nil); err != nil {
		return nil, err
	}
	flipClasses := min(inst.classes(), 2)
	flip, err := runPhase(inst, flipClasses, newChecker(), nil, dur*3/20, nil)
	if err != nil {
		return nil, err
	}

	// Fresh-state discipline: the three phases simulated the same thing.
	for k, v := range ref.exact {
		if math.Float64bits(tr.exact[k]) != math.Float64bits(v) {
			tl.fail("%s: untraced run %v, traced run %v", k, v, tr.exact[k])
		}
		if flipClasses == len(ref.pass) && k != "trace.events_per_iter" && math.Float64bits(flip.exact[k]) != math.Float64bits(v) {
			tl.fail("%s: %v, with Config.Trace flipped %v", k, v, flip.exact[k])
		}
	}

	vals := tr.exact
	probes, err := runProbes(rc.seed, probeScales[rc.scale])
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		vals[k] = v
	}

	shares, profNs, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for l, s := range shares {
		vals[l+".self_share"] = s
	}
	// Simulated events of the profiled iterations: the exact counts are
	// totals over the first pass, one iteration per class.
	iters := float64(tr.iterations) / float64(len(tr.pass))
	loads, branches, tuples := vals["hw.cache.loads"]*iters, vals["hw.branch.branches"]*iters, tr.tuples()*float64(tr.iterations)
	vals["hw.cache.host_ns_per_load"] = ratio(shares["hw.cache"]*float64(profNs), loads)
	vals["hw.branch.host_ns_per_branch"] = ratio(shares["hw.branch"]*float64(profNs), branches)
	vals["exec.host_ns_per_tuple"] = ratio(shares["exec"]*float64(profNs), tuples)

	for _, p := range []struct{ metric, span string }{
		{"progopt.compile_ms", "progopt.compile"},
		{"progopt.exec_fixed_ms", modeSpan[progopt.ModeFixed]},
		{"progopt.exec_progressive_ms", modeSpan[progopt.ModeProgressive]},
		{"progopt.exec_micro_ms", modeSpan[progopt.ModeMicroAdaptive]},
	} {
		minIter := 1 // timed iterations only
		if p.span == "progopt.compile" {
			minIter = 0
		}
		d := sp.durationsMs(p.span, minIter)
		vals[p.metric+"_p50"], vals[p.metric+"_p90"], vals[p.metric+"_n"] = median(d), quantile(d, 0.9), float64(len(d))
	}
	vals["service.submit_hit_us"] = median(sp.durationsMs("service.submit_hit", 1)) * 1e3
	vals["service.submit_miss_us"] = median(sp.durationsMs("service.submit_miss", 1)) * 1e3
	waits := sp.durationsMs("service.wait", 1)
	vals["service.wait_ms_p50"], vals["service.wait_ms_p90"] = median(waits), quantile(waits, 0.9)
	vals["service.write_metrics_ms"] = median(sp.durationsMs("service.write_metrics", 1))
	vals["service.allocs_per_query"] = 0
	if len(tr.pass[0].servers) > 0 {
		vals["service.allocs_per_query"] = perIter(tr.mallocs) / tr.queries()
	}
	vals["trace.write_chrome_ms"] = median(sp.durationsMs("trace.write_chrome", 1))
	vals["tpch.generate_mrows_s"] = ratio(float64(rows)/1e6, median(sp.durationsMs("tpch.generate", 0))/1e3)

	vals["hw.cpu.repeat_cycle_drift_max"] = float64(max(ref.drift, tr.drift))
	vals["runtime.cpu_per_wall"] = ref.cpuPerWall
	vals["bench.span_overhead_ratio"] = tr.wall(len(tr.pass)) / ref.wall(len(ref.pass))
	vals["bench.host_slowdown"] = hostSlowdown(tr.ref)
	// With the recorder on over with it off, whichever way the workload is
	// defined.
	on, off := flip.wall(flipClasses), ref.wall(flipClasses)
	if ref.pass[0].events > 0 {
		on, off = off, on
	}
	vals["trace.host_overhead_ratio"] = on / off

	rep.Iterations = tr.iterations
	if err := set(perLayer, vals); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Failures = tl.attempted, tl.failed, tl.failures

	printBudget(rc.workload, shares, profNs, loads, branches, tuples)
	printSpans(rc.workload, sp)
	if rc.out != "" {
		if err := os.MkdirAll(rc.out, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath(rc.out, rc.workload, ".pprof"), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		if err := writeJSON(outPath(rc.out, rc.workload, ".spans.json"), sp.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printBudget prints the profile as "layer · share · host ns per simulated
// event": per load for hw.cache, per branch for hw.branch, per driving-table
// tuple for every other layer. The event counts are those of the profiled
// iterations.
func printBudget(workload string, shares map[string]float64, profNs int64, loads, branches, tuples float64) {
	fmt.Printf("# %s: host CPU by layer, %.2f s sampled: layer · share · host ns per simulated event\n", workload, float64(profNs)/1e9)
	for _, l := range profiledLayers {
		event, n := "tuple", tuples
		switch l {
		case "hw.cache":
			event, n = "load", loads
		case "hw.branch":
			event, n = "branch", branches
		}
		fmt.Printf("#   %-10s %6.2f%% %10.3f ns/%s\n", l, 100*shares[l], ratio(shares[l]*float64(profNs), n), event)
	}
}

// printSpans prints the host spans by name with their self time.
func printSpans(workload string, sp *spanRec) {
	fmt.Printf("# %s: host spans: name · count · total ms · self ms\n", workload)
	for _, t := range sp.totals() {
		fmt.Printf("#   %-26s %6d %12.3f %12.3f\n", t.Name, t.Count, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6)
	}
}
