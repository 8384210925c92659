package cache

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestStagedLoadLinesMatchesAccessMajor runs the differential scripts of
// TestLoadLinesMatchesAccessMajor on a staged hierarchy: with a helper
// goroutine serving the lower half, and with none, so the caller borrows it
// whenever it has to wait. Every 40 steps the hierarchy is unstaged and staged
// again with a new helper, which exercises the hand-back. A hierarchy with a
// storage tier must refuse to stage.
func TestStagedLoadLinesMatchesAccessMajor(t *testing.T) {
	var helped uint64
	for geom := range lmGeometries {
		for flags := uint8(0); flags < 16; flags++ {
			if flags&lmStorage != 0 {
				if p := newLMPair(t, uint8(geom), flags); p.got.Stage() || p.got.staged {
					t.Fatalf("geometry %d flags %d: a hierarchy with a storage tier staged", geom, flags)
				}
				continue
			}
			for _, helper := range []bool{true, false} {
				p := newLMPair(t, uint8(geom), flags)
				rng := rand.New(rand.NewSource(int64(geom)<<8 | int64(flags)))
				for i := 0; i < 120; i++ {
					if i%40 == 0 {
						p.got.Unstage()
						p.got.Stage()
						if helper {
							go p.got.ServeStage()
						}
					}
					p.step(t, rng, uint8(rng.Intn(8)), uint8(rng.Intn(256)))
				}
				p.got.Unstage()
				if !helper && p.got.HelperLines() != 0 {
					t.Fatalf("geometry %d flags %d: %d lines helped without a helper", geom, flags, p.got.HelperLines())
				}
				helped += p.got.HelperLines()
			}
		}
	}
	if runtime.GOMAXPROCS(0) > 1 && helped == 0 {
		t.Error("no helper simulated a line: the staged path was never exercised")
	}
}

// TestOneHelperServesAStage: of two helpers invited to one stage at most one
// serves, both leave on Unstage, and a helper that arrives after Unstage
// returns at once and changes nothing.
func TestOneHelperServesAStage(t *testing.T) {
	h, err := NewHierarchy(lmGeometries[0])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewHierarchy(lmGeometries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stage() {
		t.Fatal("Stage refused a hierarchy without a storage tier")
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); h.ServeStage() }()
	}
	rh := h.LoadRun(lmBase, 8, 1<<15)
	want := ref.LoadRun(lmBase, 8, 1<<15)
	d := h.Drain()
	if rh.Lower != d.Total() {
		t.Fatalf("%d misses handed off, %d drained", rh.Lower, d.Total())
	}
	rh.Lower = 0
	if got := rh.Plus(d); got != want {
		t.Fatalf("staged run %+v, inline %+v", got, want)
	}
	h.Unstage()
	wg.Wait()
	before := h.Counters()
	h.ServeStage()
	if h.Counters() != before || h.staged || before != ref.Counters() {
		t.Fatal("a helper after Unstage changed the hierarchy")
	}
}
