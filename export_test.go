package progopt

import "progopt/internal/tpch"

// The reference execution paths — the tuple-at-a-time row loop, the unfused
// per-operator kernel pipeline, the serial scheduling round — have no switch
// in Config or ServerConfig. This file is the only place they are selected:
// tests build an engine, put it on a reference path here, and compare it with
// an engine left on the shipped path.

// refPath names the reference paths a test engine is put on.
type refPath struct {
	// scalar runs the row loop instead of the batch kernels; noFuse runs the
	// per-operator batch pipeline instead of the fused kernels (ignored by
	// the row loop).
	scalar, noFuse bool
}

// setRef puts every core of the engine's pool on the given reference path.
// Compiled queries do not depend on the path; a Server built on the engine
// afterwards serves on it (NewServer copies it).
func (e *Engine) setRef(ref refPath) {
	e.par.SetScalar(ref.scalar)
	e.par.SetFuse(!ref.noFuse)
}

// newRef is New followed by setRef.
func newRef(cfg Config, ref refPath) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.setRef(ref)
	return e, nil
}

// midOrderDate is the middle of the order-date range: about half the orders
// pass "o_orderdate <= midOrderDate" on every generated data set.
var midOrderDate = int64(tpch.StartDate+tpch.EndOrderDate) / 2

// ordersEdge appends the edge lineitem → orders and a date bound pushed down
// to it: one join operator, after the plan's lineitem predicates.
func ordersEdge(p *Plan, bound int64) *Plan {
	return p.JoinOn("lineitem", "l_orderkey", "orders").Filter("o_orderdate", CmpLE, bound)
}

// q6Plan is TPC-H Query 6 (five reorderable predicates) as a plan; it must
// compile to exactly internal/exec.Q6 (TestBuildQ6MatchesInternalOracle).
func q6Plan() *Plan {
	return Scan("lineitem").
		Filter("l_shipdate", CmpGE, int64(tpch.Q6ShipdateLo())).Label("shipdate>=lo").
		Filter("l_shipdate", CmpLT, int64(tpch.Q6ShipdateHi())).Label("shipdate<hi").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Sum("l_extendedprice * l_discount")
}

// q6ShipdatePlan is the introduction's modified Q6 (four predicates) with the
// given shipdate cutoff; it must compile to exactly internal/exec.Q6Shipdate.
func q6ShipdatePlan(cutoff int32) *Plan {
	return Scan("lineitem").
		Filter("l_shipdate", CmpLE, int64(cutoff)).Label("shipdate<=v").
		Filter("l_quantity", CmpLT, int64(tpch.Q6QuantityBound)).Label("quantity<24").
		Filter("l_discount", CmpGE, tpch.Q6DiscountLo-1e-9).Label("discount>=0.05").
		Filter("l_discount", CmpLE, tpch.Q6DiscountHi+1e-9).Label("discount<=0.07").
		Sum("l_extendedprice * l_discount")
}

// helperLines sums, over the engine's cores, the L1 misses that helper threads
// simulated below L1 (cache.Hierarchy.HelperLines): nonzero once a core ran
// staged.
func (e *Engine) helperLines() uint64 {
	var n uint64
	for _, w := range e.par.Engines() {
		n += w.CPU().Hierarchy().HelperLines()
	}
	return n
}
