package experiments

import (
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// allocLog is a binding pool that records the regions reserved through it.
type allocLog struct {
	*exec.Parallel
	regions [][2]uint64
}

func (a *allocLog) Alloc(size int) (uint64, error) {
	base, err := a.Parallel.Alloc(size)
	a.regions = append(a.regions, [2]uint64{base, base + uint64(size)})
	return base, err
}

// TestServeTemplatesDoNotAlias: no ext-serve template's join hash region
// overlaps a column its query reads.
func TestServeTemplatesDoNotAlias(t *testing.T) {
	const vs = 512
	d, err := tpch.Generate(tpch.Config{Lineitems: 48 * vs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	par, err := exec.NewParallel(cpu.ScaledXeon(), 1, vs)
	if err != nil {
		t.Fatal(err)
	}
	binder := &allocLog{Parallel: par}
	tpls, err := serveTemplates(binder, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(binder.regions) != len(tpls) {
		t.Fatalf("%d regions reserved for %d templates", len(binder.regions), len(tpls))
	}
	for i, tpl := range tpls {
		var cols []*columnar.Column
		for _, op := range tpl.q.Ops {
			switch o := op.(type) {
			case *exec.Predicate:
				cols = append(cols, o.Col)
			case *exec.FKJoin:
				cols = append(cols, o.Key, o.Filter.Col)
			}
		}
		lo, hi := binder.regions[i][0], binder.regions[i][1]
		for _, c := range cols {
			if !c.Bound() {
				t.Fatalf("template %d: column %q is not bound", i, c.Name())
			}
			cLo, cHi := c.Base(), c.Base()+uint64(c.SizeBytes())
			if lo < cHi && cLo < hi {
				t.Errorf("template %d: hash region [%#x, %#x) overlaps %q at [%#x, %#x)", i, lo, hi, c.Name(), cLo, cHi)
			}
		}
	}
}
