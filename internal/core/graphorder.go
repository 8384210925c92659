package core

import (
	"fmt"
	"sort"
	"strings"

	cachemodel "progopt/internal/costmodel/cache"
)

// GraphJoin describes one equi-join edge of a join graph for the static
// orderers: the edge attaches table To to the already-joined part of the
// graph through a foreign-key column of table From. Exactly the facts a
// planner has before running anything — physical sizes and, for the
// cost-model orderer, a filter-selectivity estimate.
type GraphJoin struct {
	// Name labels the edge in errors and reports.
	Name string
	// From and To are the edge's endpoint tables; From must be the driving
	// table or some earlier edge's To.
	From, To string
	// BuildRows is |To|, the only statistic the greedy orderer consults.
	BuildRows int
	// BuildWidth is the byte width of the build-side column the edge's filter
	// touches (Eq. (1)'s tuple width); only the cost-model orderer reads it.
	BuildWidth int
	// Probes is the expected probe count (the driving cardinality); only the
	// cost-model orderer reads it.
	Probes int
	// Selectivity estimates the fraction of probes surviving the edge's
	// pushed-down filter (1 = no filter); only the cost-model orderer reads
	// it.
	Selectivity float64
}

// GreedyGraphOrder orders a join graph's edges with the statistics-free
// greedy heuristic (janus-datalog's "When Greedy Beats Optimal" baseline):
// repeatedly place, among the edges whose From table is already joined
// (connectivity constraint — the driving table starts joined), the one with
// the smallest build relation. No cardinality estimates, no sampled
// statistics, only physical table sizes; ties break by To-table name, then
// declaration order, so the result is deterministic. Returns indexes into
// joins: the empty order for a graph without edges.
func GreedyGraphOrder(driving string, joins []GraphJoin) ([]int, error) {
	return placeAll(driving, joins, func(i int) float64 { return float64(joins[i].BuildRows) })
}

// missStallWeight converts one miss into comparable cost units (roughly the
// memory-stall cycles of the simulated core) and evalCost is the bookkeeping
// cost of one probe.
const (
	missStallWeight = 45.0
	evalCost        = 4.0
)

// CostModelGraphOrder orders the same search space with the classic static
// rank criterion, rank = cost/(1-selectivity) ascending, where each edge's
// per-probe cost is Eq. (1)'s *predicted random-access* miss rate — the
// paper's §5.6 straw man: without observed PMU counters the model must
// assume random probe locality, so a co-clustered build side (cheap in
// reality) is priced as expensive as a random one and can be ordered after a
// genuinely random-access edge that filters slightly more.
func CostModelGraphOrder(g cachemodel.Geometry, driving string, joins []GraphJoin) ([]int, error) {
	ranks := make([]float64, len(joins))
	for i, j := range joins {
		if j.Probes <= 0 {
			return nil, fmt.Errorf("core: graph join %q has no probes", name(j, i))
		}
		if j.Selectivity < 0 || j.Selectivity > 1 {
			return nil, fmt.Errorf("core: graph join %q selectivity %v outside [0,1]", name(j, i), j.Selectivity)
		}
		missRate := g.RandomMisses(j.BuildRows, j.BuildWidth, j.Probes) / float64(j.Probes)
		cost := evalCost + float64(missRate*missStallWeight)
		drop := 1 - j.Selectivity
		if drop <= 1e-9 {
			ranks[i] = cost * 1e9
		} else {
			ranks[i] = cost / drop
		}
	}
	return placeAll(driving, joins, func(i int) float64 { return ranks[i] })
}

// placeAll runs the connectivity-constrained placement loop shared by both
// orderers: each step places the unplaced edge with the lowest score among
// those whose From table is already joined.
func placeAll(driving string, joins []GraphJoin, score func(int) float64) ([]int, error) {
	if driving == "" {
		return nil, fmt.Errorf("core: graph order needs a driving table")
	}
	for i, j := range joins {
		if j.BuildRows <= 0 {
			return nil, fmt.Errorf("core: graph join %q has non-positive build cardinality %d", name(j, i), j.BuildRows)
		}
	}
	joined := map[string]bool{driving: true}
	order := make([]int, 0, len(joins))
	placed := make([]bool, len(joins))
	for len(order) < len(joins) {
		best := -1
		for i, j := range joins {
			if placed[i] || !joined[j.From] {
				continue
			}
			if best < 0 || less(score(i), joins[i], score(best), joins[best]) {
				best = i
			}
		}
		if best < 0 {
			var stuck []string
			for i, j := range joins {
				if !placed[i] {
					stuck = append(stuck, fmt.Sprintf("%s (from %q)", name(j, i), j.From))
				}
			}
			sort.Strings(stuck)
			return nil, fmt.Errorf("core: join graph is not connected to %q: cannot place %s",
				driving, strings.Join(stuck, ", "))
		}
		placed[best] = true
		joined[joins[best].To] = true
		order = append(order, best)
	}
	return order, nil
}

// less is the deterministic placement comparison: score, then To name, then
// declaration order (indexes are distinct, so the loop's best-so-far scan is
// a total order).
func less(sa float64, a GraphJoin, sb float64, b GraphJoin) bool {
	if sa != sb {
		return sa < sb
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return false // equal keys: keep the earlier index (best-so-far wins ties)
}

// name labels an edge for errors.
func name(j GraphJoin, i int) string {
	if j.Name != "" {
		return j.Name
	}
	return fmt.Sprintf("%s→%s[%d]", j.From, j.To, i)
}
