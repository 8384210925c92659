package experiments

import (
	"fmt"

	"progopt/internal/core"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// rig bundles the simulated cores and engine for a sequence of measurements
// over the same bound data set. Every measurement starts cold (cpu.CPU.Cold),
// like the paper's separately executed queries, and runs on a pool of the
// config's Workers cores — one by default: through the one query driver, or,
// for the figures' direct engine calls (Engine.Run, RunBranchFree,
// RunInstrumented), on the pool's core 0.
type rig struct {
	// eng is the pool's core 0. It binds the data set and reserves every
	// region the figures allocate, and the direct engine calls run on it,
	// so they land on its trace track.
	eng *exec.Engine
	// opt is the optimizer-decision track when the config carries a trace
	// recorder, nil otherwise. Rigs within one recorder get uniquely prefixed
	// track names so sweeps over several rigs stay distinguishable.
	opt *trace.Track
	run *core.Run
}

func newRig(prof cpu.Profile, cfg Config) (*rig, error) {
	workers := max(cfg.Workers, 1)
	par, err := exec.NewParallel(prof, workers, cfg.VectorSize)
	if err != nil {
		return nil, err
	}
	r := &rig{eng: par.Engines()[0], run: core.NewRun(par)}
	if cfg.Trace != nil {
		// Track names embed the recorder's current track count so each rig
		// in a sweep gets its own set (determinism: rigs are created in
		// program order, never concurrently).
		id := cfg.Trace.NumTracks()
		cores := make([]*trace.Track, workers)
		for i := range cores {
			cores[i] = cfg.Trace.NewTrack(fmt.Sprintf("rig%d/core %d", id, i))
		}
		r.opt = cfg.Trace.NewTrack(fmt.Sprintf("rig%d/optimizer", id))
		par.SetTrace(cores)
	}
	return r, nil
}

// withVector returns the config with a different vector size (for sweeps).
func (c Config) withVector(vs int) Config {
	c.VectorSize = vs
	return c
}

func (r *rig) bind(q *exec.Query) error {
	return r.eng.BindQuery(q)
}

// drive runs one query to completion from a cold start; the result, output
// rows and stepper are the run's until the next measurement.
func (r *rig) drive(spec core.Spec) (*core.Run, error) {
	spec.Opt.Trace = r.opt
	if err := r.run.Begin(spec); err != nil {
		return nil, err
	}
	return r.run, r.run.Drive()
}

// measureBaseline runs q under the given operator permutation with the
// common (fixed-order) execution pattern and returns the result.
func (r *rig) measureBaseline(q *exec.Query, perm []int) (exec.Result, error) {
	qo, err := q.WithOrder(perm)
	if err != nil {
		return exec.Result{}, err
	}
	run, err := r.drive(core.Spec{Query: qo})
	if err != nil {
		return exec.Result{}, err
	}
	return run.Result, nil
}

// measureProgressive runs q under the given initial permutation with
// progressive optimization at the given re-optimization interval.
func (r *rig) measureProgressive(q *exec.Query, perm []int, reopInt int) (exec.Result, core.Stats, error) {
	return r.measureProgressiveOpts(q, perm, core.Options{ReopInterval: reopInt})
}

// measureProgressiveOpts is measureProgressive with full control over the
// driver options (exploration probes, validation knobs); the rig attaches
// its own trace track.
func (r *rig) measureProgressiveOpts(q *exec.Query, perm []int, opts core.Options) (exec.Result, core.Stats, error) {
	qo, err := q.WithOrder(perm)
	if err != nil {
		return exec.Result{}, core.Stats{}, err
	}
	run, err := r.drive(core.Spec{Query: qo, Mode: core.ModeProgressive, Opt: opts})
	if err != nil {
		return exec.Result{}, core.Stats{}, err
	}
	return run.Result, run.Stats(), nil
}

// millis converts simulated cycles to msec on the rig's clock.
func (r *rig) millis(cycles uint64) float64 { return r.eng.CPU().MillisOf(cycles) }

func fmtMs(ms float64) string { return fmt.Sprintf("%.2f", ms) }
