package cache

import (
	"math"
	"testing"
)

func TestSTrav(t *testing.T) {
	g := geo()
	p := STrav{N: 10000, Width: 8}
	if got := p.Misses(g); got != g.Lines(10000, 8) {
		t.Errorf("s_trav misses %v, want one per line %v", got, g.Lines(10000, 8))
	}
	if p.FootprintBytes() != 80000 {
		t.Error("footprint wrong")
	}
}

func TestRTravMatchesEq1(t *testing.T) {
	g := geo()
	p := RTrav{N: 4 << 20, Width: 8, Probes: 100000}
	if got, want := p.Misses(g), g.RandomMisses(4<<20, 8, 100000); math.Abs(got-want) > 1e-9 {
		t.Errorf("r_trav %v != Eq.(1) %v", got, want)
	}
}

func TestRRAccRegimes(t *testing.T) {
	g := geo() // 16384-line capacity = 1 MB
	// Fitting region: cold misses only.
	small := RRAcc{RegionBytes: 64 << 10, Probes: 1 << 20}
	if got := small.Misses(g); got != 1024 {
		t.Errorf("fitting rr_acc misses %v, want 1024 cold misses", got)
	}
	// Fewer probes than lines: at most one miss per probe.
	sparse := RRAcc{RegionBytes: 64 << 10, Probes: 10}
	if got := sparse.Misses(g); got != 10 {
		t.Errorf("sparse rr_acc misses %v, want 10", got)
	}
	// Thrashing region: probes keep missing.
	big := RRAcc{RegionBytes: 64 << 20, Probes: 1 << 20}
	if got := big.Misses(g); got < float64(1<<20)*0.9 {
		t.Errorf("thrashing rr_acc misses %v, want ~every probe", got)
	}
}

func TestSeqAddsMisses(t *testing.T) {
	g := geo()
	a := STrav{N: 1000, Width: 8}
	b := STrav{N: 2000, Width: 8}
	if got := (Seq{a, b}).Misses(g); math.Abs(got-(a.Misses(g)+b.Misses(g))) > 1e-9 {
		t.Error("seq composition must add misses")
	}
	if (Seq{a, b}).FootprintBytes() != b.FootprintBytes() {
		t.Error("seq footprint is the max phase footprint")
	}
}

func TestConcurrentInterference(t *testing.T) {
	g := geo()
	// Two repetitive regions that fit alone but not together must miss more
	// when concurrent than the sum of their solo misses.
	a := RRAcc{RegionBytes: 768 << 10, Probes: 1 << 20}
	b := RRAcc{RegionBytes: 768 << 10, Probes: 1 << 20}
	solo := a.Misses(g) + b.Misses(g)
	together := (Concurrent{a, b}).Misses(g)
	if together <= solo {
		t.Errorf("concurrent misses %v not above solo sum %v (no interference)", together, solo)
	}
}

func TestConcurrentNoInterferenceWhenTiny(t *testing.T) {
	g := geo()
	a := RRAcc{RegionBytes: 4 << 10, Probes: 100000}
	b := RRAcc{RegionBytes: 4 << 10, Probes: 100000}
	solo := a.Misses(g) + b.Misses(g)
	together := (Concurrent{a, b}).Misses(g)
	if math.Abs(together-solo) > solo*0.01 {
		t.Errorf("tiny concurrent regions interfered: %v vs %v", together, solo)
	}
}

func TestPatternStrings(t *testing.T) {
	for _, p := range []Pattern{
		STrav{N: 1, Width: 8},
		RTrav{N: 1, Width: 8, Probes: 1},
		RRAcc{RegionBytes: 64, Probes: 1},
		Seq{STrav{N: 1, Width: 8}},
		Concurrent{STrav{N: 1, Width: 8}},
	} {
		if p.String() == "" {
			t.Errorf("%T has empty description", p)
		}
	}
}
