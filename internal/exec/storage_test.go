package exec

import (
	"testing"

	"progopt/internal/hw/cache"
	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// TestSetStorageAllocatesNothing: core.Run attaches a stored query's views on
// every step — on a pool of one core an adaptive step is one vector — so an
// attach and a detach allocate nothing, traced or not, and a traced core
// still records the view's fetches whichever of SetTrace and SetStorage came
// first.
func TestSetStorageAllocatesNothing(t *testing.T) {
	view := func() *StorageScan {
		s := cache.NewStorageSet(cache.StorageConfig{LatencyCycles: 10})
		if err := s.AddRange(0, 4096, s.AddBlock(512)); err != nil {
			t.Fatal(err)
		}
		return &StorageScan{Set: s}
	}
	for _, traced := range []bool{false, true} {
		e := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
		var tr *trace.Track
		if traced {
			tr = trace.New().NewTrack("core 0")
			e.SetTrace(tr)
		}
		v := view()
		if n := testing.AllocsPerRun(100, func() {
			e.SetStorage(v)
			e.SetStorage(nil)
		}); n != 0 {
			t.Errorf("traced %v: SetStorage(v); SetStorage(nil) allocates %v times, want 0", traced, n)
		}
		if !traced {
			continue
		}
		// Attached after the trace, and the trace attached after it.
		e.SetStorage(v)
		v.Set.Touch(0)
		late := MustEngine(cpu.MustNew(cpu.ScaledXeon()), 1024)
		w := view()
		late.SetStorage(w)
		lateTr := trace.New().NewTrack("core 0")
		late.SetTrace(lateTr)
		w.Set.Touch(0)
		for _, got := range []*trace.Track{tr, lateTr} {
			if evs := got.Events(); len(evs) != 1 || evs[0].Name != "tier-fetch" {
				t.Errorf("traced core recorded %v, want one tier-fetch", evs)
			}
		}
		// A detached view reports to no track.
		e.SetStorage(nil)
		v.Set.Cold()
		v.Set.Touch(0)
		if n := len(tr.Events()); n != 1 {
			t.Errorf("detached view recorded %d events, want the 1 from before", n)
		}
	}
}
