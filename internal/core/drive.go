package core

import (
	"progopt/internal/exec"
	"progopt/internal/hw/pmu"
)

// RunAdaptive is the drive loop of every adaptive run — progressive, or
// micro-adaptive with micro set: execute one step, let the stepper
// coordinate, repeat. It runs on the pool p when there is one and on the
// single engine e otherwise. On one engine a step is one vector and every
// ReopInterval-th is an optimization point; on a pool a step is a morsel
// block of ReopInterval vectors per core and every block is one. Neither the
// last vector nor the last block is an optimization point: nothing would run
// under the new plan.
//
// The result's cycles (a makespan on a pool) and counters include what the
// loop charged for sampling, estimation and recompiles. Qualifying and Sum
// are bit-identical to a fixed-order run at every worker count and interval,
// and since the morsel scheduler runs on simulated clocks, so are cycles,
// samples and decisions from run to run.
func RunAdaptive(e *exec.Engine, p *exec.Parallel, q *exec.Query, opt Options, micro bool) (exec.Result, Stats, error) {
	engines := []*exec.Engine{e}
	if p != nil {
		engines = p.Engines()
	}
	coord := engines[0].CPU()
	s, err := NewBlockStepper(q, coord.Profile(), len(engines), micro, opt)
	if err != nil {
		return exec.Result{}, Stats{}, err
	}
	n := q.Table.NumRows()
	vs := engines[0].VectorSize()
	numVec := (n + vs - 1) / vs
	stepVecs := 1
	if p == nil {
		s.clockBase = coord.Cycles()
	} else if stepVecs = s.BlockVectors(len(engines)); stepVecs <= 0 {
		stepVecs = numVec // no re-optimization: one block
	}
	startSamples := make([]pmu.Sample, len(engines))
	for i, w := range engines {
		startSamples[i] = w.CPU().Sample()
	}

	var out exec.Result
	for v0 := 0; v0 < numVec; v0 += stepVecs {
		v1 := min(v0+stepVecs, numVec)
		lo, hi := v0*vs, min(v1*vs, n)
		// Every step adds into out.Sum directly, which keeps the aggregate's
		// float addition in global vector order across step boundaries: Sum
		// is bit-identical for every worker count and interval.
		var br exec.BlockResult
		if p != nil {
			br, err = p.RunBlock(s.Query(), v0, v1, s.Impl(), &out.Sum)
		} else {
			br, err = runVector(e, s.Query(), lo, hi, s.Impl(), &out.Sum)
		}
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		out.Qualifying += br.Qualifying
		out.Vectors += br.Vectors
		optPoint := opt.ReopInterval > 0 && v1%opt.ReopInterval == 0 && v1 < numVec
		extra, err := s.AfterBlock(br, hi-lo, optPoint, p != nil || hi-lo == vs, coord, engines)
		if err != nil {
			return exec.Result{}, Stats{}, err
		}
		out.Cycles += br.MaxCycles + extra
	}

	s.TraceFinal()
	out.Millis = coord.MillisOf(out.Cycles)
	for i, w := range engines {
		out.Counters = out.Counters.Add(w.CPU().Sample().Sub(startSamples[i]))
	}
	return out, s.Stats(), nil
}

// runVector executes rows [lo, hi) — one vector — on a single engine and
// reports it as a one-morsel block. WorkerCycles stays nil: the stepper never
// reads it, and it would be an allocation per vector.
func runVector(e *exec.Engine, q *exec.Query, lo, hi int, impl exec.ScanImpl, sum *float64) (exec.BlockResult, error) {
	c := e.CPU()
	s0, c0 := c.Sample(), c.Cycles()
	vr, err := e.RunVectorImpl(q, lo, hi, impl)
	if err != nil {
		return exec.BlockResult{}, err
	}
	*sum += vr.Sum
	return exec.BlockResult{
		Qualifying: vr.Qualifying,
		Vectors:    1,
		MaxCycles:  c.Cycles() - c0,
		Counters:   c.Sample().Sub(s0),
	}, nil
}
