package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"progopt/internal/columnar"
	"progopt/internal/core"
	cachemodel "progopt/internal/costmodel/cache"
	"progopt/internal/costmodel/markov"
	"progopt/internal/costmodel/peo"
	"progopt/internal/exec"
	"progopt/internal/hw/branch"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/cpu"
	"progopt/internal/service"
	"progopt/internal/tpch"
	"progopt/internal/trace"
)

// Layer probes call a layer's public entry points directly with
// workload-shaped inputs and report host nanoseconds per simulated event.
// They are the same on every workload: a probe that moves while a workload's
// end-to-end metric does not says the layer is not on that workload's path.

const (
	probeReps   = 5
	probeVector = 1024
)

// probeSizes scale the probes' inputs.
type probeSizes struct {
	runBytes    int // LoadRun/LoadSel sweep
	streamLoads int // LoadStream/LoadAddrs gathers
	branches    int
	execRows    int
	encodeRows  int
	smallCalls  int // calls of µs-scale functions
}

var probeScales = map[string]probeSizes{
	"full": {runBytes: 32 << 20, streamLoads: 1 << 19, branches: 1 << 21, execRows: 1 << 19, encodeRows: 200_000, smallCalls: 200},
	"tiny": {runBytes: 1 << 20, streamLoads: 1 << 15, branches: 1 << 15, execRows: 1 << 14, encodeRows: 10_000, smallCalls: 10},
}

// timeReps runs fn probeReps times and returns the median wall time in
// nanoseconds. fn returns a fingerprint of the simulated state it produced;
// a probe whose simulated counts do not repeat exactly is an error.
func timeReps(name string, fn func() (uint64, error)) (float64, error) {
	var ns []float64
	var first uint64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fp, err := fn()
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		if i == 0 {
			first = fp
		} else if fp != first {
			return 0, fmt.Errorf("probe %s: simulated counts %d then %d: not repeatable", name, first, fp)
		}
		ns = append(ns, float64(d))
	}
	return median(ns), nil
}

// hitsFP folds a batched run's hit counts into one comparable value.
func hitsFP(fp uint64, h cache.RunHits) uint64 {
	for _, v := range []int{h.L1, h.L2, h.L3, h.Mem} {
		fp = fp*1_000_003 + uint64(v)
	}
	return fp
}

// randomAddrs returns n 8-byte-aligned addresses uniform over span bytes.
func randomAddrs(rng *rand.Rand, n, span int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1<<30 + uint64(rng.Intn(span/8))*8
	}
	return out
}

// runProbes returns every probe metric.
func runProbes(seed int64, ps probeSizes) (map[string]float64, error) {
	out := map[string]float64{}
	prof := cpu.ScaledXeon()
	rng := rand.New(rand.NewSource(seed))

	// hw.cache: prefetched runs, selective gathers, and random streams that
	// miss (16 MB against a 1 MB simulated L3) or hit (256 KB).
	const base = 1 << 30
	rows := ps.runBytes / 8
	ns, err := timeReps("load_run", func() (uint64, error) {
		h, err := cache.NewHierarchy(prof.Hierarchy)
		if err != nil {
			return 0, err
		}
		var fp uint64
		for r := 0; r < rows; r += probeVector {
			fp = hitsFP(fp, h.LoadRun(base+uint64(r)*8, 8, probeVector))
		}
		return fp, nil
	})
	if err != nil {
		return nil, err
	}
	out["hw.cache.load_run_ns"] = ns / float64(rows)

	sel := make([][]int32, 0, rows/probeVector)
	selected := 0
	for r := 0; r < rows; r += probeVector {
		var v []int32
		for i := 0; i < probeVector; i++ {
			if rng.Intn(4) == 0 {
				v = append(v, int32(r+i))
			}
		}
		sel = append(sel, v)
		selected += len(v)
	}
	ns, err = timeReps("load_sel", func() (uint64, error) {
		h, err := cache.NewHierarchy(prof.Hierarchy)
		if err != nil {
			return 0, err
		}
		var fp uint64
		for _, v := range sel {
			fp = hitsFP(fp, h.LoadSel(base, 8, v))
		}
		return fp, nil
	})
	if err != nil {
		return nil, err
	}
	out["hw.cache.load_sel_ns"] = ns / float64(selected)

	for _, p := range []struct {
		name string
		span int
	}{{"hw.cache.load_stream_miss_ns", 16 << 20}, {"hw.cache.load_stream_hit_ns", 256 << 10}} {
		addrs := randomAddrs(rng, ps.streamLoads, p.span)
		ns, err = timeReps(p.name, func() (uint64, error) {
			h, err := cache.NewHierarchy(prof.Hierarchy)
			if err != nil {
				return 0, err
			}
			var fp uint64
			for i := 0; i < len(addrs); i += probeVector {
				fp = hitsFP(fp, h.LoadStream(addrs[i:i+probeVector]))
			}
			return fp, nil
		})
		if err != nil {
			return nil, err
		}
		out[p.name] = ns / float64(len(addrs))
	}

	// hw.branch: a coin-flip stream and a well-predicted one.
	for _, p := range []struct {
		name string
		prob float64
	}{{"hw.branch.observe_random_ns", 0.5}, {"hw.branch.observe_biased_ns", 0.02}} {
		taken := make([]bool, ps.branches)
		for i := range taken {
			taken[i] = rng.Float64() < p.prob
		}
		ns, err = timeReps(p.name, func() (uint64, error) {
			pred, err := branch.ForArch(branch.ArchIvyBridge)
			if err != nil {
				return 0, err
			}
			var miss uint64
			for _, t := range taken {
				if pred.Observe(1, t).Mispredicted() {
					miss++
				}
			}
			return miss, nil
		})
		if err != nil {
			return nil, err
		}
		out[p.name] = ns / float64(len(taken))
	}

	// hw.cpu: a vector's loop back-edge retired in one call (ns per call of
	// 1024 branches), and a gathered address stream (ns per load).
	ns, err = timeReps("cond_branch_n", func() (uint64, error) {
		c, err := cpu.New(prof)
		if err != nil {
			return 0, err
		}
		for i := 0; i < ps.branches/8; i++ {
			c.CondBranchN(i&7, i&1 == 0, probeVector)
		}
		return c.Cycles(), nil
	})
	if err != nil {
		return nil, err
	}
	out["hw.cpu.cond_branch_n_ns"] = ns / float64(ps.branches/8)

	addrs := randomAddrs(rng, ps.streamLoads, 16<<20)
	ns, err = timeReps("load_addrs", func() (uint64, error) {
		c, err := cpu.New(prof)
		if err != nil {
			return 0, err
		}
		for i := 0; i < len(addrs); i += probeVector {
			c.LoadAddrs(addrs[i : i+probeVector])
		}
		return c.Cycles(), nil
	})
	if err != nil {
		return nil, err
	}
	out["hw.cpu.load_addrs_ns"] = ns / float64(len(addrs))

	// exec: one 3-predicate + aggregate query over a synthetic table, on the
	// serial engine and on four simulated cores. The repeat check is on the
	// answer, not on cycles: a reused engine drifts by a cycle or so per run
	// (see hw.cpu.repeat_cycle_drift_max).
	synth := func() *exec.Query {
		r := rand.New(rand.NewSource(seed))
		a := make([]int64, ps.execRows)
		b := make([]int32, ps.execRows)
		f := make([]float64, ps.execRows)
		for i := range a {
			a[i], b[i], f[i] = r.Int63n(100), r.Int31n(100), r.Float64()
		}
		t := columnar.NewTable("synthetic")
		ca, cb, cf := columnar.NewInt64("a", a), columnar.NewInt32("b", b), columnar.NewFloat64("f", f)
		t.MustAddColumn(ca)
		t.MustAddColumn(cb)
		t.MustAddColumn(cf)
		return &exec.Query{
			Table: t,
			Ops: []exec.Op{
				&exec.Predicate{Col: ca, Op: exec.LT, I: 60},
				&exec.Predicate{Col: cb, Op: exec.GE, I: 30},
				&exec.Predicate{Col: cf, Op: exec.LE, F: 0.5},
			},
			Agg: &exec.Aggregate{Cols: []*columnar.Column{cf}, F: func(row int) float64 { return f[row] }},
		}
	}
	c, err := cpu.New(prof)
	if err != nil {
		return nil, err
	}
	eng, err := exec.NewEngine(c, probeVector)
	if err != nil {
		return nil, err
	}
	q := synth()
	if err := eng.BindQuery(q); err != nil {
		return nil, err
	}
	serial, err := timeReps("exec.run", func() (uint64, error) {
		c.FlushCaches()
		c.ResetPredictor()
		r, err := eng.Run(q)
		return uint64(r.Qualifying), err
	})
	if err != nil {
		return nil, err
	}
	par, err := exec.NewParallel(prof, 4, probeVector)
	if err != nil {
		return nil, err
	}
	defer par.Close()
	pq := synth()
	if err := par.BindQuery(pq); err != nil {
		return nil, err
	}
	parallel, err := timeReps("exec.parallel_run", func() (uint64, error) {
		par.Cold()
		r, err := par.Run(pq)
		return uint64(r.Qualifying), err
	})
	if err != nil {
		return nil, err
	}
	out["exec.run_ns_per_tuple"] = serial / float64(ps.execRows)
	out["exec.parallel_run_ns_per_tuple"] = parallel / float64(ps.execRows)
	out["exec.wave_overhead_ratio"] = parallel / serial

	// core / costmodel: the forward counter model and its inversion.
	par3 := peo.Params{
		N: probeVector, Widths: []int{8, 8, 4}, AggWidths: []int{8},
		Geometry: cachemodel.Geometry{LineSize: prof.Hierarchy.L3.LineSize, CapacityLines: prof.Hierarchy.L3.Lines()},
		Chain:    markov.Paper(),
	}
	sels := []float64{0.6, 0.3, 0.8}
	var est peo.Estimate
	ns, err = timeReps("peo.counters", func() (uint64, error) {
		for i := 0; i < ps.smallCalls*50; i++ {
			if est, err = peo.Counters(par3, sels); err != nil {
				return 0, err
			}
		}
		return uint64(est.L3), nil
	})
	if err != nil {
		return nil, err
	}
	out["costmodel.peo_counters_us"] = ns / float64(ps.smallCalls*50) / 1e3
	smp := core.CounterSample{N: probeVector, BNT: est.BNT, MPTaken: est.MPTaken, MPNotTaken: est.MPNotTaken, L3: est.L3, Qualifying: est.Qualifying}
	ecfg := core.EstimatorConfig{Widths: par3.Widths, AggWidths: par3.AggWidths, Geometry: par3.Geometry, Chain: par3.Chain}
	ns, err = timeReps("core.estimate", func() (uint64, error) {
		var e core.Estimation
		for i := 0; i < ps.smallCalls; i++ {
			if e, err = core.EstimateSelectivities(smp, ecfg); err != nil {
				return 0, err
			}
		}
		return uint64(e.NMEvaluations), nil
	})
	if err != nil {
		return nil, err
	}
	out["core.estimate_us"] = ns / float64(ps.smallCalls) / 1e3

	// service: the canonical plan fingerprint of a five-step plan.
	terms := []string{"f|l_quantity|<|i:24", "f|l_discount|>=|x:0x1.999999999999ap-05", "f|l_discount|<=|x:0x1.1eb851eb851ecp-04", "f|l_shipdate|<=|i:9500", "s|l_discount*l_extendedprice"}
	ns, err = timeReps("service.fingerprint", func() (uint64, error) {
		var fp service.Fingerprint
		for i := 0; i < ps.smallCalls*50; i++ {
			fp = service.Compute("lineitem", uint64(i), terms)
		}
		return uint64(fp[0]), nil
	})
	if err != nil {
		return nil, err
	}
	out["service.fingerprint_ns"] = ns / float64(ps.smallCalls*50)

	// columnar: PCOL v2 encode, and parse + decode of the written stream.
	d, err := tpch.Generate(tpch.Config{Lineitems: ps.encodeRows, Seed: seed})
	if err != nil {
		return nil, err
	}
	var enc *columnar.EncodedTable
	ns, err = timeReps("columnar.encode", func() (uint64, error) {
		enc, err = columnar.EncodeTable(d.Lineitem, 4096)
		if err != nil {
			return 0, err
		}
		return uint64(enc.EncodedBytes()), nil
	})
	if err != nil {
		return nil, err
	}
	plainMB := float64(enc.PlainBytes()) / 1e6
	out["columnar.encode_mb_s"] = plainMB / (ns / 1e9)
	var stream bytes.Buffer
	if err := columnar.WriteEncoded(&stream, enc); err != nil {
		return nil, err
	}
	ns, err = timeReps("columnar.decode", func() (uint64, error) {
		e, err := columnar.ReadEncoded(bytes.NewReader(stream.Bytes()))
		if err != nil {
			return 0, err
		}
		t, err := e.Decode()
		if err != nil {
			return 0, err
		}
		return uint64(t.NumRows()), nil
	})
	if err != nil {
		return nil, err
	}
	out["columnar.decode_mb_s"] = plainMB / (ns / 1e9)

	// trace: appending one span to a simulated-clock track.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	spans := ps.branches / 4 // stays below a track's default event limit
	ns, err = timeReps("trace.span", func() (uint64, error) {
		tk := trace.New().NewTrack("probe")
		for i := 0; i < spans; i++ {
			tk.Span("vector", uint64(i), uint64(i)+1)
		}
		return uint64(len(tk.Events())), nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	out["trace.span_append_ns"] = ns / float64(spans)
	out["trace.span_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(probeReps*spans)
	return out, nil
}
