package core

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	res, err := new(nmWorkspace).minimize(f, []float64{0, 0}, NMOptions{MaxIter: 2000, AbsTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]+1) > 1e-3 {
		t.Errorf("minimum at %v, want (3,-1)", res.X)
	}
	if res.Evaluations == 0 || res.Iterations == 0 {
		t.Error("no work recorded")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := new(nmWorkspace).minimize(f, []float64{-1.2, 1}, NMOptions{MaxIter: 5000, AbsTol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.02 || math.Abs(res.X[1]-1) > 0.02 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", res.X)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Unconstrained minimum at (3, -1), box limits to [0,2]x[0,2].
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
	}
	res, err := new(nmWorkspace).minimize(f, []float64{1, 1}, NMOptions{
		MaxIter: 2000, AbsTol: 1e-12,
		Lo: []float64{0, 0}, Hi: []float64{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if v < 0 || v > 2 {
			t.Fatalf("dimension %d escaped the box: %v", i, v)
		}
	}
	if math.Abs(res.X[0]-2) > 0.02 || math.Abs(res.X[1]-0) > 0.02 {
		t.Errorf("constrained minimum at %v, want (2,0)", res.X)
	}
}

func TestNelderMeadStartAtBound(t *testing.T) {
	// Start exactly on the upper bound: the initial simplex must step inward.
	f := func(x []float64) float64 { return x[0] * x[0] }
	res, err := new(nmWorkspace).minimize(f, []float64{1}, NMOptions{
		MaxIter: 500, AbsTol: 1e-12,
		Lo: []float64{-1}, Hi: []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-3 {
		t.Errorf("minimum at %v, want 0", res.X[0])
	}
}

func TestNelderMeadValidation(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, err := new(nmWorkspace).minimize(f, nil, NMOptions{}); err == nil {
		t.Error("empty start accepted")
	}
	if _, err := new(nmWorkspace).minimize(f, []float64{0}, NMOptions{Lo: []float64{0, 0}}); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

func TestNelderMeadHonorsMaxIter(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	res, err := new(nmWorkspace).minimize(f, []float64{100}, NMOptions{MaxIter: 3, AbsTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("ran %d iterations, limit 3", res.Iterations)
	}
}
