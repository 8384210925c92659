package cache

import "testing"

func TestPrefetcherDetectsSequentialStream(t *testing.T) {
	p := NewStreamPrefetcher()
	var from uint64
	var n int
	for line := uint64(100); line < 110; line++ {
		from, n = p.observe(line)
	}
	// Steady state: exactly one new line per observed line (the rest of the
	// degree-2 window was issued on earlier observations).
	if n != 1 {
		t.Fatalf("steady-state stream returned %d prefetches, want 1", n)
	}
	if from+1 != 111 {
		t.Fatalf("prefetch target %d, want 111 (degree 2 ahead of line 109)", from+1)
	}
	// Total issues: first trigger at confidence 2 issues the full degree-2
	// window, then one per line.
	if p.Issued == 0 || p.Issued > 2+uint64(9) {
		t.Fatalf("issued %d prefetches over 10-line stream", p.Issued)
	}
}

func TestPrefetcherNeedsConfidence(t *testing.T) {
	p := NewStreamPrefetcher()
	if _, n := p.observe(100); n != 0 {
		t.Fatal("first miss must not prefetch")
	}
	if _, n := p.observe(101); n != 0 {
		t.Fatal("second miss (confidence 1 < 2) must not prefetch")
	}
	if _, n := p.observe(102); n == 0 {
		t.Fatal("third sequential miss should trigger prefetch")
	}
}

func TestPrefetcherIgnoresRandomStream(t *testing.T) {
	p := NewStreamPrefetcher()
	// Large random jumps never form a stream.
	lines := []uint64{10, 5000, 90, 70000, 33, 123456, 9}
	issued := 0
	for _, l := range lines {
		_, n := p.observe(l)
		issued += n
	}
	if issued != 0 {
		t.Errorf("random stream issued %d prefetches, want 0", issued)
	}
}

func TestPrefetcherToleratesSkippedLines(t *testing.T) {
	// Conditional-read pattern: every other line. Window 4 must still track
	// it — this is the source of the paper's double-counted random misses.
	p := NewStreamPrefetcher()
	issued := 0
	for line := uint64(0); line < 40; line += 2 {
		_, n := p.observe(line)
		issued += n
	}
	if issued == 0 {
		t.Error("stride-2 stream inside the window issued no prefetches")
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewStreamPrefetcher()
	// Interleave two streams (two columns scanned in one loop).
	a, b := uint64(1000), uint64(500000)
	issuedA, issuedB := 0, 0
	for i := 0; i < 10; i++ {
		if from, n := p.observe(a + uint64(i)); n > 0 && from+1 > a {
			issuedA += n
		}
		if from, n := p.observe(b + uint64(i)); n > 0 && from+1 > b {
			issuedB += n
		}
	}
	if issuedA == 0 || issuedB == 0 {
		t.Errorf("interleaved streams: issued A=%d B=%d, both must be > 0", issuedA, issuedB)
	}
}

func TestPrefetcherReset(t *testing.T) {
	p := NewStreamPrefetcher()
	for line := uint64(0); line < 10; line++ {
		p.observe(line)
	}
	if p.Issued == 0 {
		t.Fatal("setup failed to issue prefetches")
	}
	p.Reset()
	if p.Issued != 0 {
		t.Error("Reset did not clear Issued")
	}
	if _, n := p.observe(10); n != 0 {
		t.Error("stream survived Reset")
	}
}
