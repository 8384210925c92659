package experiments

import (
	"sync"

	"progopt/internal/columnar"
	"progopt/internal/tpch"
)

// This file memoizes the deterministic parts of experiment setup. Dataset
// construction (tpch.Generate and the windowed shuffles) is a pure function
// of its parameters, yet the figure harnesses rebuild it from scratch on
// every invocation — under `go test -bench` that construction dominated a
// third of some figures' wall clock. The cache keeps one materialized copy
// per parameter tuple and hands out header-only clones: fresh Table/Column
// objects (so binding state never leaks between invocations — every caller
// binds exactly as if it had generated the data itself) over the shared,
// never-mutated value slices.
//
// Simulated results are unaffected: callers receive bit-identical values and
// identical (un)bound state, so the simulated address assignment and every
// event stream match a cache-free run exactly.

// dsKey identifies a deterministic dataset: the generator parameters plus,
// for shuffled variants, the shuffle window and seed (window 0 = unshuffled).
type dsKey struct {
	rows       int
	seed       int64
	window     int
	windowSeed int64
}

// dsCacheCap bounds retained datasets; misses past the cap build uncached.
const dsCacheCap = 32

var (
	dsMu    sync.Mutex
	dsCache = map[dsKey]*tpch.Dataset{}
)

// cloneTable re-wraps every column of t in a fresh, unbound Column sharing
// the same value slice.
func cloneTable(t *columnar.Table) *columnar.Table {
	out := columnar.NewTable(t.Name())
	for _, c := range t.Columns() {
		switch c.Kind() {
		case columnar.Int64:
			out.MustAddColumn(columnar.NewInt64(c.Name(), c.I64()))
		case columnar.Int32:
			out.MustAddColumn(columnar.NewInt32(c.Name(), c.I32()))
		case columnar.Date:
			out.MustAddColumn(columnar.NewDate(c.Name(), c.I32()))
		case columnar.Float64:
			out.MustAddColumn(columnar.NewFloat64(c.Name(), c.F64()))
		}
	}
	return out
}

func cloneDataset(d *tpch.Dataset) *tpch.Dataset {
	return &tpch.Dataset{
		Lineitem:  cloneTable(d.Lineitem),
		Orders:    cloneTable(d.Orders),
		Part:      cloneTable(d.Part),
		NumOrders: d.NumOrders,
		NumParts:  d.NumParts,
	}
}

func dsLookup(k dsKey) (*tpch.Dataset, bool) {
	dsMu.Lock()
	d, ok := dsCache[k]
	dsMu.Unlock()
	if !ok {
		return nil, false
	}
	return cloneDataset(d), true
}

func dsStore(k dsKey, d *tpch.Dataset) {
	dsMu.Lock()
	if len(dsCache) < dsCacheCap {
		dsCache[k] = d
	}
	dsMu.Unlock()
}

// cachedDataset returns a private clone of tpch.Generate(rows, seed).
func cachedDataset(rows int, seed int64) (*tpch.Dataset, error) {
	k := dsKey{rows: rows, seed: seed}
	if d, ok := dsLookup(k); ok {
		return d, nil
	}
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	dsStore(k, d)
	return cloneDataset(d), nil
}

// cachedShuffledDataset returns a private clone of
// base.ShuffleLineitemWindow(window, windowSeed), where base is the cached
// dataset for (rows, seed). d0 must be that base (any clone of it).
func cachedShuffledDataset(d0 *tpch.Dataset, rows int, seed int64, window int, windowSeed int64) *tpch.Dataset {
	k := dsKey{rows: rows, seed: seed, window: window, windowSeed: windowSeed}
	if d, ok := dsLookup(k); ok {
		return d
	}
	d := d0.ShuffleLineitemWindow(window, windowSeed)
	dsStore(k, d)
	return cloneDataset(d)
}
