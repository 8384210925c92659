package progopt

import (
	"fmt"

	"progopt/internal/core"
)

// ShuffleWindow returns a copy of the data set whose lineitem rows are
// permuted by a windowed Knuth shuffle over the current order: window 1
// keeps the order, larger windows progressively destroy locality (the
// paper's §5.5 sortedness axis).
func (d *Dataset) ShuffleWindow(window int, seed int64) *Dataset {
	return newDataset(d.d.ShuffleLineitemWindow(window, seed))
}

// SortednessReport classifies the locality of a join's build-side accesses
// from its sampled miss count (§5.5-§5.6).
type SortednessReport struct {
	// Ratio is sampled misses / Eq.(1)-predicted random misses.
	Ratio float64
	// Class is "co-clustered", "partially-clustered", or "random".
	Class string
}

// DetectJoinLocality runs the query once, attributes its L3 misses to the
// given build table, and classifies the access pattern against the paper's
// random-access prediction (Eq. 1). The returned result is the measurement
// run's result.
func (e *Engine) DetectJoinLocality(q *Query, d *Dataset, build string) (Result, SortednessReport, error) {
	buildTuples := d.d.TableRows(build)
	if buildTuples == 0 {
		return Result{}, SortednessReport{}, fmt.Errorf("progopt: unknown build table %q", build)
	}
	res, err := e.Exec(q, ExecOptions{Mode: ModeFixed})
	if err != nil {
		return Result{}, SortednessReport{}, err
	}
	rep := core.DetectSortedness(
		core.L3Geometry(e.core0().CPU().Profile()),
		buildTuples, 8, d.Lineitems(),
		float64(res.Counters["l3_miss"]),
	)
	return res.Result, SortednessReport{Ratio: rep.Ratio, Class: rep.Class.String()}, nil
}
