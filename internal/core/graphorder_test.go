package core

import (
	"reflect"
	"strings"
	"testing"

	cachemodel "progopt/internal/costmodel/cache"
)

// starJoins is a lineitem-rooted star/snowflake: orders (big, filtered),
// part (small), customer chained off orders.
func starJoins() []GraphJoin {
	return []GraphJoin{
		{Name: "orders", From: "lineitem", To: "orders", BuildRows: 5000, BuildWidth: 4, Probes: 20000, Selectivity: 0.5},
		{Name: "customer", From: "orders", To: "customer", BuildRows: 500, BuildWidth: 8, Probes: 20000, Selectivity: 0.9},
		{Name: "part", From: "lineitem", To: "part", BuildRows: 666, BuildWidth: 4, Probes: 20000, Selectivity: 0.9},
	}
}

// TestGreedyGraphOrderConnectivity: greedy places the smallest build
// relation first but never before its From table is joined — customer
// (smallest) must wait for orders.
func TestGreedyGraphOrderConnectivity(t *testing.T) {
	order, err := GreedyGraphOrder("lineitem", starJoins())
	if err != nil {
		t.Fatal(err)
	}
	// part (666) before orders (5000); customer (500) held back by
	// connectivity until orders is placed.
	if want := []int{2, 0, 1}; !reflect.DeepEqual(order, want) {
		t.Errorf("greedy order %v, want %v", order, want)
	}
}

// TestGreedyGraphOrderTies: equal sizes break by To name, then declaration
// order, deterministically.
func TestGreedyGraphOrderTies(t *testing.T) {
	joins := []GraphJoin{
		{From: "root", To: "zeta", BuildRows: 100},
		{From: "root", To: "alpha", BuildRows: 100},
	}
	order, err := GreedyGraphOrder("root", joins)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("tie order %v, want %v (alpha first)", order, want)
	}
}

// TestGreedyGraphOrderDisconnected: an edge hanging off an unreachable table
// is reported with the stuck edges named.
func TestGreedyGraphOrderDisconnected(t *testing.T) {
	joins := []GraphJoin{
		{Name: "nation", From: "customer", To: "nation", BuildRows: 25},
	}
	_, err := GreedyGraphOrder("lineitem", joins)
	if err == nil {
		t.Fatal("disconnected graph ordered successfully")
	}
	if !strings.Contains(err.Error(), "not connected") || !strings.Contains(err.Error(), "nation") {
		t.Errorf("unhelpful disconnection error: %v", err)
	}
}

// TestGreedyGraphOrderValidation: a graph without edges has the empty order
// (a filter-only plan is one); non-positive sizes fail.
func TestGreedyGraphOrderValidation(t *testing.T) {
	if order, err := GreedyGraphOrder("lineitem", nil); err != nil || len(order) != 0 {
		t.Errorf("empty join list: order %v, error %v; want the empty order", order, err)
	}
	if _, err := GreedyGraphOrder("lineitem", []GraphJoin{{From: "lineitem", To: "orders"}}); err == nil {
		t.Error("zero-cardinality build side ordered successfully")
	}
}

// TestCostModelGraphOrderRank: with selectivity estimates, the cost model
// ranks a strongly-filtering edge ahead of a weakly-filtering one of similar
// predicted cost — and stays connectivity-constrained.
func TestCostModelGraphOrderRank(t *testing.T) {
	g := cachemodel.MustGeometry(64, 1024)
	order, err := CostModelGraphOrder(g, "lineitem", starJoins())
	if err != nil {
		t.Fatal(err)
	}
	// orders filters half its probes away (sel 0.5) while part keeps 0.9;
	// the predicted random-miss cost is similar for both (both larger than
	// cache), so rank = cost/(1-sel) puts orders first — the static model
	// cannot see that part is the cheaper *observed* probe when orders is
	// co-clustered. customer still waits for orders.
	if order[0] != 0 {
		t.Errorf("cost-model order %v, want orders (index 0) first", order)
	}
	pos := map[int]int{}
	for p, idx := range order {
		pos[idx] = p
	}
	if pos[1] < pos[0] {
		t.Errorf("cost-model order %v places customer before its parent orders", order)
	}
}

// TestCostModelGraphOrderValidation: probe and selectivity bounds checked.
func TestCostModelGraphOrderValidation(t *testing.T) {
	g := cachemodel.MustGeometry(64, 1024)
	bad := starJoins()
	bad[0].Probes = 0
	if _, err := CostModelGraphOrder(g, "lineitem", bad); err == nil {
		t.Error("zero probes ordered successfully")
	}
	bad = starJoins()
	bad[1].Selectivity = 1.5
	if _, err := CostModelGraphOrder(g, "lineitem", bad); err == nil {
		t.Error("selectivity 1.5 ordered successfully")
	}
}
