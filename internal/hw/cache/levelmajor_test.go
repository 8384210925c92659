package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// Differential tests of the level-major core against the access-major
// simulator it replaced (access_ref_test.go): every batched entry point, Load
// and Flush, on the same script, must leave the same RunHits, counters, tags,
// recency rings and streamer table.

// lmGeometries are the cache shapes the scripts run on: the shipped one
// (8/8/16-way, the SWAR probes), a 16-times smaller copy of it that evicts
// constantly, and two that take the generic probe (2- and 4-way) at one or
// more levels.
var lmGeometries = []HierarchyConfig{
	lmGeometry(64, [3]int{2 << 10, 16 << 10, 1 << 20}, [3]int{8, 8, 16}),
	lmGeometry(64, [3]int{1 << 10, 4 << 10, 16 << 10}, [3]int{8, 8, 16}),
	lmGeometry(32, [3]int{256, 1 << 10, 4 << 10}, [3]int{2, 4, 4}),
	lmGeometry(64, [3]int{512, 2 << 10, 8 << 10}, [3]int{4, 16, 2}),
}

func lmGeometry(line int, size, ways [3]int) HierarchyConfig {
	lv := func(i int) Config {
		return Config{Name: fmt.Sprintf("L%d", i+1), SizeBytes: size[i], LineSize: line, Ways: ways[i], LatencyCycles: 4 * (i + 1)}
	}
	return HierarchyConfig{L1: lv(0), L2: lv(1), L3: lv(2), MemLatencyCycles: 180}
}

// Flags of an lmPair. Bit 0 once turned the streamer off and bit 1 attached
// a storage tier below memory; both are ignored, so the committed seeds keep
// the meaning of their other bits.
const (
	lmWindow2 = 4 << iota
	lmWindow6 // with lmWindow2: Window 1
)

const (
	lmBase = 1 << 30 // first byte of the region scripts address
	lmSpan = 1 << 20
)

// lmPair is one configuration built twice: ref driven access-major, got
// level-major.
type lmPair struct {
	ref *refHierarchy
	got *Hierarchy
}

func newLMPair(t testing.TB, geom, flags uint8) *lmPair {
	cfg := lmGeometries[int(geom)%len(lmGeometries)]
	ref, err := newRefHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &lmPair{ref: ref, got: got}
	window := 4
	switch flags & (lmWindow2 | lmWindow6) {
	case lmWindow2:
		window = 2
	case lmWindow6:
		window = 6
	case lmWindow2 | lmWindow6:
		window = 1
	}
	ref.pf.Window, got.lo.pf.Window = window, window
	return p
}

// check compares the pair after a step.
func (p *lmPair) check(t testing.TB, label string) {
	t.Helper()
	sameState(t, label, p.ref.state(), p.got.state())
	for i, last := range p.got.lo.pf.lastLine {
		if sig := uint8(p.got.lo.pf.sig[i/8] >> (i % 8 * 8)); sig != uint8(last>>sigShift) {
			t.Fatalf("%s: stream %d: signature %#x for last line %#x", label, i, sig, last)
		}
	}
	l2 := p.got.lo.l2
	for s, ln := range p.got.lo.l2mru {
		if tag := l2.tags[s*l2.ways+int(l2.heads[s])]; ln != tag {
			t.Fatalf("%s: L2 set %d: l2mru %#x, MRU tag %#x", label, s, ln, tag)
		}
	}
	checkArmed(t, label, p.got.lo.pf)
}

// checkArmed requires an armed streamer to keep every entry but the head out
// of fastLo-Window .. fastLo+fastX-1 (mod 2^64), the lines arm proved free.
func checkArmed(t testing.TB, label string, p *StreamPrefetcher) {
	t.Helper()
	if !p.armed {
		return
	}
	w := uint64(p.fastWindow)
	for j, last := range p.lastLine {
		if j != int(p.head) && last-(p.fastLo-w) < w+p.fastX {
			t.Fatalf("%s: armed at %#x+%#x (window %d), but stream %d's last line is %#x", label, p.fastLo, p.fastX, w, j, last)
		}
	}
}

// lmLengths are the run lengths scripts pick from: the chunk boundaries of the
// batched core, and the small ones.
var lmLengths = []int{0, 1, 2, 3, 17, 100, chunkLines - 1, chunkLines, chunkLines + 1, 2*chunkLines + 3}

// lmAddrs draws n addresses of the given pattern from the script region.
func lmAddrs(rng *rand.Rand, cfg HierarchyConfig, pattern uint8, n int) []uint64 {
	line := uint64(cfg.L1.LineSize)
	lines := uint64(lmSpan) / line
	out := make([]uint64, n)
	at := func(ln uint64) uint64 { return lmBase + ln%lines*line + uint64(rng.Intn(int(line))) }
	switch pattern % 8 {
	case 0: // random over the region
		for i := range out {
			out[i] = at(uint64(rng.Int63()))
		}
	case 1: // random over a span L3 holds, with same-line repeats
		span := uint64(cfg.L3.Lines() / 2)
		for i := range out {
			if i > 0 && rng.Intn(3) == 0 {
				out[i] = out[i-1] &^ (line - 1)
				continue
			}
			out[i] = at(uint64(rng.Int63()) % span)
		}
	case 2: // one set of a level: stride = sets x line
		lv := []Config{cfg.L1, cfg.L2, cfg.L3}[rng.Intn(3)]
		sets := uint64(lv.Lines() / lv.Ways)
		first := uint64(rng.Intn(64))
		for i := range out {
			out[i] = at(first + uint64(rng.Intn(3*lv.Ways))*sets)
		}
	case 3: // two lines
		first := uint64(rng.Int63())
		for i := range out {
			out[i] = at(first + uint64(rng.Intn(8)/7))
		}
	case 4: // ascending with gaps inside and beyond every Window
		ln := uint64(rng.Int63())
		for i := range out {
			out[i] = at(ln)
			ln += []uint64{0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 9}[rng.Intn(13)]
		}
	case 5: // three interleaved sequential streams and noise
		var heads [3]uint64
		for i := range heads {
			heads[i] = uint64(rng.Int63())
		}
		for i := range out {
			if s := rng.Intn(4); s < 3 {
				out[i] = at(heads[s])
				heads[s] += uint64(rng.Intn(3))
			} else {
				out[i] = at(uint64(rng.Int63()))
			}
		}
	case 6: // more streams than the table holds, round robin
		var heads [streamTableSize + 3]uint64
		for i := range heads {
			heads[i] = uint64(rng.Int63())
		}
		for i := range out {
			s := i % len(heads)
			out[i] = at(heads[s])
			heads[s]++
		}
	default: // re-read: a sequential run, the same run again from its start,
		// then two streams past it, each reading every other line, the second
		// one to five lines behind the first (so it covers the first's lines)
		first := uint64(rng.Int63())
		k := n / 3
		for i := 0; i < 2*k; i++ {
			out[i] = at(first + uint64(i%k))
		}
		b := first + uint64(k)           // each stream's next line; either may
		a := b + uint64(1+2*rng.Intn(3)) // take the lower table entry
		for i := 2 * k; i < n; i++ {
			if a-b == 5 || a-b == 3 && rng.Intn(2) == 0 {
				out[i] = at(b)
				b += 2
			} else {
				out[i] = at(a)
				a += 2
			}
		}
	}
	return out
}

// step runs one scripted operation on both hierarchies and compares.
func (p *lmPair) step(t testing.TB, rng *rand.Rand, op, arg uint8) {
	cfg := p.got.cfg
	n := lmLengths[int(arg>>3)%len(lmLengths)]
	label := fmt.Sprintf("op %d arg %d", op%8, arg)
	var want, got RunHits
	switch op % 8 {
	case 0, 1, 2: // gathered stream
		addrs := lmAddrs(rng, cfg, arg, n)
		want, got = p.ref.LoadStream(addrs), p.got.LoadStream(addrs)
	case 3, 4: // selection gather: ascending rows, same-line clusters, skips
		stride := []int{4, 8, 24}[arg%3]
		base := uint64(lmBase + rng.Intn(lmSpan/2))
		rows := make([]int32, n)
		row := int32(rng.Intn(8))
		for i := range rows {
			rows[i] = row
			row += int32(rng.Intn(1 + int(arg%5)*8))
		}
		want, got = p.ref.LoadSel(base, stride, rows), p.got.LoadSel(base, stride, rows)
	case 5: // strided run
		stride := []int{1, 4, 8, 24, 64, 100, 200, 4096}[arg%8]
		start := uint64(lmBase + rng.Intn(lmSpan/2))
		want, got = p.ref.LoadRun(start, stride, n), p.got.LoadRun(start, stride, n)
	case 6: // single loads
		for _, a := range lmAddrs(rng, cfg, arg, n%20) {
			if w, g := p.ref.Load(a), p.got.Load(a); w != g {
				t.Fatalf("%s: Load(%#x) = %+v, access-major %+v", label, a, g, w)
			}
		}
	default:
		if arg%4 == 0 {
			p.ref.Flush()
			p.got.Flush()
		}
	}
	if p.got.staged {
		// The levels of the misses the run handed off come back from Drain.
		d := p.got.Drain()
		if got.Lower != d.Total() {
			t.Fatalf("%s: %d misses handed off, %d drained", label, got.Lower, d.Total())
		}
		got.Lower = 0
		got = got.Plus(d)
	}
	if want != got {
		t.Fatalf("%s: hits %+v, access-major %+v", label, got, want)
	}
	p.check(t, label)
}

// TestLoadLinesMatchesAccessMajor walks every geometry and flag combination
// through every operation, pattern and length.
func TestLoadLinesMatchesAccessMajor(t *testing.T) {
	for geom := range lmGeometries {
		for flags := uint8(0); flags < 16; flags += 4 { // bits 0 and 1 are ignored
			p := newLMPair(t, uint8(geom), flags)
			rng := rand.New(rand.NewSource(int64(geom)<<8 | int64(flags)))
			for i := 0; i < 120; i++ {
				p.step(t, rng, uint8(rng.Intn(8)), uint8(rng.Intn(256)))
			}
		}
	}
}

// FuzzLoadLinesMatchesAccessMajor lets the fuzzer write the script: two bytes
// per step (operation; pattern and length), addresses drawn from seed.
func FuzzLoadLinesMatchesAccessMajor(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, geom, flags uint8, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		p := newLMPair(t, geom, flags)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(script); i += 2 {
			p.step(t, rng, script[i], script[i+1])
		}
	})
}

// TestLevelRunMatchesPerAccess drives one level alone: random op streams —
// demand loads and streamer requests over a few sets' worth of lines, in
// chunks of every small length — through run and through the per-access
// calls run's comment defines it by, at every probe (SWAR 8 and 16, generic)
// and as an inner and as the last level.
func TestLevelRunMatchesPerAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ways := range []int{1, 2, 4, 8, 16, 32} {
		for _, last := range []bool{false, true} {
			cfg := Config{Name: "T", SizeBytes: 4 * ways * 64, LineSize: 64, Ways: ways}
			ref, _ := NewLevel(cfg)
			got, _ := NewLevel(cfg)
			for step := 0; step < 400; step++ {
				ops := make([]uint64, rng.Intn(40))
				for i := range ops {
					ops[i] = uint64(rng.Intn(12*ways))<<rng.Intn(9) + 1
					if rng.Intn(3) == 0 {
						ops[i] |= prefetchOp
					}
				}
				var want []uint64
				for _, op := range ops {
					ln := op &^ prefetchOp
					set := int(ln & ref.setMask)
					switch {
					case op == ln && !ref.LookupLine(ln):
						ref.fillLRU(set, set*ways, ln)
						want = append(want, op)
					case op != ln && !last:
						ref.InsertLine(ln, true)
						want = append(want, op)
					case op != ln && !ref.ContainsLine(ln):
						ref.fillLRU(set, set*ways, ln)
						ref.stats.PrefetchInserts++
						want = append(want, op)
					}
				}
				if out := got.run(ops, last); !slices.Equal(out, want) {
					t.Fatalf("%d-way last=%v step %d: run lets through %x, per-access %x", ways, last, step, out, want)
				}
				sameLevel(t, fmt.Sprintf("%d-way last=%v step %d", ways, last, step), ref, got)
				if ref.stats != got.stats {
					t.Fatalf("%d-way last=%v step %d: stats %+v, per-access %+v", ways, last, step, got.stats, ref.stats)
				}
			}
		}
	}
}

// TestObserveMatchesReference drives the streamer alone, against the old
// Observe, over windows the signature filter handles (1 to maxFilteredWindow)
// and ones it leaves to the scan (0, negative, wider), and degrees from none
// to many. (Not a negative Degree: at line 0 the old issue loop never ends.)
// Window is an exported field, so it also changes between calls, now and then,
// to another of those windows: an armed stream must notice.
func TestObserveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	windows := []int{-3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, maxFilteredWindow, maxFilteredWindow + 1, 100}
	for _, window := range windows {
		for _, degree := range []int{0, 1, 2, 5} {
			ref, got := NewStreamPrefetcher(), NewStreamPrefetcher()
			ref.Window, got.Window = window, window
			ref.Degree, got.Degree = degree, degree
			var heads [20]uint64
			for i := range heads {
				// Low lines too: line-Window wraps below zero there.
				heads[i] = uint64(rng.Intn(3)) * uint64(rng.Int63()>>8)
			}
			for i := 0; i < 4000; i++ {
				s := rng.Intn(3) // mostly a few streams, sometimes more than the table holds
				if i/500%2 == 1 {
					s = rng.Intn(len(heads))
				}
				line := heads[s]
				heads[s] += uint64(rng.Intn(window+3+abs(window)) / 2)
				if rng.Intn(16) == 0 {
					line = uint64(rng.Int63())
				}
				if rng.Intn(64) == 0 {
					w := windows[rng.Intn(len(windows))]
					ref.Window, got.Window = w, w
				}
				want := append([]uint64(nil), refObserve(ref, line)...)
				label := fmt.Sprintf("window %d (now %d) degree %d step %d", window, got.Window, degree, i)
				if g := expand(got.observe(line)); !reflect.DeepEqual(g, want) {
					t.Fatalf("%s: observe(%d) = %v, reference %v", label, line, g, want)
				}
				if ref.lastLine != got.lastLine || ref.issuedUpTo != got.issuedUpTo || ref.confidence != got.confidence ||
					ref.prev != got.prev || ref.next != got.next || ref.head != got.head || ref.Issued != got.Issued {
					t.Fatalf("%s: tables diverge after observe(%d)", label, line)
				}
				checkArmed(t, label, got)
			}
		}
	}
}

// expand lists observe's request, the n lines after from.
func expand(from uint64, n int) []uint64 {
	var out []uint64
	for k := 1; k <= n; k++ {
		out = append(out, from+uint64(k))
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestObserveAtTopOfLineSpace pins the bound on the issue range: a confirmed
// stream reaching the last line ids used to spin forever (the end line of a
// request within Degree of 2^64 is the largest uint64, which no `l <= to`
// loop leaves).
func TestObserveAtTopOfLineSpace(t *testing.T) {
	p := NewStreamPrefetcher()
	top := ^uint64(0)
	for _, c := range []struct {
		line uint64
		want []uint64
	}{
		{top - 6, nil},
		{top - 5, nil},
		{top - 4, []uint64{top - 3, top - 2}},
		{top - 3, []uint64{top - 1}},
		{top - 2, []uint64{top}}, // the request that never returned
		{top - 1, nil},           // a request past the top line wraps: none
		{top, nil},
	} {
		if got := expand(p.observe(c.line)); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("observe(2^64-%d) = %v, want %v", top-c.line+1, got, c.want)
		}
	}
	if p.Issued != 4 {
		t.Fatalf("issued %d requests, want 4", p.Issued)
	}
}

// loader is what the A/B below drives: the level-major Hierarchy or the
// access-major reference.
type loader interface {
	LoadStream(addrs []uint64) RunHits
	LoadSel(base uint64, stride int, rows []int32) RunHits
	LoadRun(start uint64, stride, n int) RunHits
}

// BenchmarkLevelMajorAB is the layer check DESIGN.md records: each case runs
// on a fresh shipped-geometry hierarchy of either kind, the two alternating
// within one process, and reports each side's fastest round in ns per load
// and the median over rounds of access-major time / level-major time (rounds
// are `-benchtime Nx`; the median of paired ratios holds still on a host
// whose speed drifts, the minima do not).
func BenchmarkLevelMajorAB(b *testing.B) {
	cfg := lmGeometries[0]
	rng := rand.New(rand.NewSource(7))
	const loads = 1 << 16
	random := func(span int) []uint64 {
		out := make([]uint64, loads)
		for i := range out {
			out[i] = lmBase + uint64(rng.Intn(span/8))*8
		}
		return out
	}
	gather := func(addrs []uint64, chunk int) func(loader) RunHits {
		return func(h loader) (rh RunHits) {
			for i := 0; i < len(addrs); i += chunk {
				rh = rh.Plus(h.LoadStream(addrs[i : i+chunk]))
			}
			return rh
		}
	}
	var sel [][]int32
	for r := 0; r < 4*loads; r += 1024 {
		var v []int32
		for i := 0; i < 1024; i++ {
			if rng.Intn(4) == 0 {
				v = append(v, int32(r+i))
			}
		}
		sel = append(sel, v)
	}
	for _, c := range []struct {
		name string
		run  func(loader) RunHits
	}{
		{"stream-16MB-chunk128", gather(random(16<<20), 128)},
		{"stream-256KB-chunk128", gather(random(256<<10), 128)},
		{"stream-16MB-chunk1024", gather(random(16<<20), 1024)},
		{"sel-25pct", func(h loader) (rh RunHits) {
			for _, v := range sel {
				rh = rh.Plus(h.LoadSel(lmBase, 8, v))
			}
			return rh
		}},
		{"run-stride8", func(h loader) (rh RunHits) {
			for r := 0; r < 8*loads; r += 1024 {
				rh = rh.Plus(h.LoadRun(lmBase+uint64(r)*8, 8, 1024))
			}
			return rh
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			best := [2]time.Duration{1 << 62, 1 << 62}
			ratios := make([]float64, 0, b.N)
			var total int
			for i := 0; i < b.N; i++ {
				var hits [2]RunHits
				var took [2]time.Duration
				for k := 0; k < 2; k++ {
					side := (i + k) % 2 // alternate who goes first
					var h loader
					if side == 0 {
						h, _ = newRefHierarchy(cfg)
					} else {
						h, _ = NewHierarchy(cfg)
					}
					start := time.Now()
					hits[side] = c.run(h)
					took[side] = time.Since(start)
					best[side] = min(best[side], took[side])
				}
				if hits[0] != hits[1] {
					b.Fatalf("hits %+v, access-major %+v", hits[1], hits[0])
				}
				total = hits[0].Total()
				ratios = append(ratios, float64(took[0])/float64(took[1]))
			}
			sort.Float64s(ratios)
			b.ReportMetric(float64(best[0])/float64(total), "ref-ns/load")
			b.ReportMetric(float64(best[1])/float64(total), "new-ns/load")
			b.ReportMetric(ratios[len(ratios)/2], "speedup")
			b.ReportMetric(0, "ns/op")
		})
	}
}
