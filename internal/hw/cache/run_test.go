package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// Property test for the run-batched load protocol: LoadRun, LoadSel, and
// LoadStream must produce bit-identical counters, cache contents, and hit
// levels to the equivalent sequence of per-element Load calls, across random
// strides, selections, and cache geometries.

func randHierCfg(rng *rand.Rand) HierarchyConfig {
	lineSize := 32 << rng.Intn(2) // 32 or 64
	mk := func(name string, kb, ways, lat int) Config {
		return Config{Name: name, SizeBytes: kb << 10, LineSize: lineSize, Ways: ways, LatencyCycles: lat}
	}
	ways := []int{2, 4, 8, 16}
	return HierarchyConfig{
		L1:               mk("L1", 1, ways[rng.Intn(3)], 4),
		L2:               mk("L2", 4, ways[rng.Intn(4)], 12),
		L3:               mk("L3", 16, ways[rng.Intn(4)], 36),
		MemLatencyCycles: 180,
	}
}

// replayHits collects the per-level hit counts of per-element Load calls.
func replayHits(h *Hierarchy, addrs []uint64) RunHits {
	var rh RunHits
	for _, a := range addrs {
		rh.add(h.Load(a).Level)
	}
	return rh
}

// hierState is everything about a hierarchy a later access could observe:
// counters, the levels (tags and recency rings), the streamer table and the
// storage tier, whose counters hold its stall total.
type hierState struct {
	counters Counters
	levels   [3]*Level
	pf       *StreamPrefetcher
	st       *StorageSet
}

func (h *Hierarchy) state() hierState {
	return hierState{h.Counters(), [3]*Level{h.l1, h.lo.l2, h.lo.l3}, h.lo.pf, h.lo.st}
}

// sameLevel requires two levels to hold the same lines in the same ways and
// the same recency rings. (Counters are compared by the caller.)
func sameLevel(t testing.TB, label string, a, b *Level) {
	t.Helper()
	if !slices.Equal(a.tags, b.tags) || !slices.Equal(a.ptags, b.ptags) ||
		!slices.Equal(a.prev, b.prev) || !slices.Equal(a.next, b.next) ||
		!slices.Equal(a.heads, b.heads) {
		t.Fatalf("%s: %s contents diverge", label, a.cfg.Name)
	}
}

// sameState requires two hierarchies to agree on all of it.
func sameState(t testing.TB, label string, a, b hierState) {
	t.Helper()
	if a.counters != b.counters {
		t.Fatalf("%s: counters diverge:\n %+v\n %+v", label, a.counters, b.counters)
	}
	for i, lv := range a.levels {
		sameLevel(t, label, lv, b.levels[i])
	}
	if p, q := a.pf, b.pf; p.lastLine != q.lastLine || p.issuedUpTo != q.issuedUpTo || p.confidence != q.confidence ||
		p.prev != q.prev || p.next != q.next || p.head != q.head || p.linked != q.linked || p.Issued != q.Issued {
		t.Fatalf("%s: streamer tables diverge:\n %+v\n %+v", label, p.lastLine, q.lastLine)
	}
	if (a.st == nil) != (b.st == nil) || a.st != nil && a.st.Counters() != b.st.Counters() {
		t.Fatalf("%s: storage counters diverge", label)
	}
}

func TestLoadRunMatchesPerElementLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		cfg := randHierCfg(rng)
		ref, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A mixed schedule: strided runs, selection gathers, arbitrary
		// streams, and single loads interleaved so each kind starts from the
		// state the previous ones left (memo carry-over included).
		for step := 0; step < 30; step++ {
			switch rng.Intn(4) {
			case 0: // strided run
				start := uint64(rng.Intn(1 << 20))
				stride := []int{1, 4, 8, 24, 64, 100, 200}[rng.Intn(7)]
				n := rng.Intn(300) + 1
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = start + uint64(i)*uint64(stride)
				}
				want := replayHits(ref, addrs)
				got := bat.LoadRun(start, stride, n)
				if want != got {
					t.Fatalf("trial %d step %d: LoadRun hits %+v, per-element %+v", trial, step, got, want)
				}
			case 1: // selection gather (ascending rows, with same-line clusters)
				base := uint64(rng.Intn(1 << 20))
				stride := []int{4, 8, 24}[rng.Intn(3)]
				nrows := rng.Intn(200) + 1
				rows := make([]int32, 0, nrows)
				row := int32(rng.Intn(8))
				for len(rows) < nrows {
					rows = append(rows, row)
					row += int32(rng.Intn(20))
				}
				addrs := make([]uint64, len(rows))
				for i, r := range rows {
					addrs[i] = base + uint64(r)*uint64(stride)
				}
				want := replayHits(ref, addrs)
				got := bat.LoadSel(base, stride, rows)
				if want != got {
					t.Fatalf("trial %d step %d: LoadSel hits %+v, per-element %+v", trial, step, got, want)
				}
			case 2: // arbitrary stream with repeats (probe-like)
				n := rng.Intn(200) + 1
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = uint64(rng.Intn(1<<16)) * 8
					if i > 0 && rng.Intn(3) == 0 {
						addrs[i] = addrs[i-1] // same-line repeat
					}
				}
				want := replayHits(ref, addrs)
				got := bat.LoadStream(addrs)
				if want != got {
					t.Fatalf("trial %d step %d: LoadStream hits %+v, per-element %+v", trial, step, got, want)
				}
			default: // single load
				addr := uint64(rng.Intn(1 << 20))
				a, b := ref.Load(addr), bat.Load(addr)
				if a != b {
					t.Fatalf("trial %d step %d: Load %+v vs %+v", trial, step, a, b)
				}
			}
			sameState(t, "after step", ref.state(), bat.state())
		}
	}
}
