package cache

import (
	"math/rand"
	"testing"
)

// The level's recency state is a positional ring (slot.prev/next), not a
// timestamp counter, so there is nothing to overflow no matter how many
// accesses a run simulates — that is the overflow-safety guarantee for what
// used to be a uint64 LRU clock, whose stamps a sufficiently long run could
// in principle have wrapped. These tests pin the ring against an explicit
// stamp-based reference with an *unbounded* clock (the semantics the ring
// must reproduce), including across stamp ranges where a fixed-width clock
// would be near wrapping.

// refLRU is the stamp-based reference: one unbounded timestamp per resident
// line, refreshed on every touch; eviction removes the minimum.
type refLRU struct {
	sets  []map[uint64]uint64 // line -> stamp
	ways  int
	mask  uint64
	clock uint64
}

func newRefLRU(cfg Config, startClock uint64) *refLRU {
	sets := make([]map[uint64]uint64, cfg.Lines()/cfg.Ways)
	for i := range sets {
		sets[i] = make(map[uint64]uint64)
	}
	return &refLRU{sets: sets, ways: cfg.Ways, mask: uint64(len(sets) - 1), clock: startClock}
}

func (r *refLRU) lookup(ln uint64) bool {
	r.clock++
	s := r.sets[ln&r.mask]
	if _, ok := s[ln]; ok {
		s[ln] = r.clock
		return true
	}
	return false
}

func (r *refLRU) insert(ln uint64) {
	r.clock++
	s := r.sets[ln&r.mask]
	if _, ok := s[ln]; ok {
		s[ln] = r.clock
		return
	}
	if len(s) == r.ways { // evict the LRU line
		var victim uint64
		oldest := ^uint64(0)
		for l, st := range s {
			if st < oldest {
				victim, oldest = l, st
			}
		}
		delete(s, victim)
	}
	s[ln] = r.clock
}

// TestRingLRUMatchesStampReference drives the ring-based level and the
// stamp-based reference with the same random access stream and asserts
// identical hit/miss outcomes and counters throughout — including with the
// reference clock started just below 2^64, where the positional ring by
// construction cannot care.
func TestRingLRUMatchesStampReference(t *testing.T) {
	cfg := Config{Name: "T", SizeBytes: 2048, LineSize: 64, Ways: 4, LatencyCycles: 1}
	for _, startClock := range []uint64{0, ^uint64(0) - 1<<40} {
		lvl, err := NewLevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLRU(cfg, startClock)
		rng := rand.New(rand.NewSource(int64(startClock%97) + 3))
		lines := cfg.Lines() * 3 // oversubscribed: evictions happen constantly
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(lines)) * uint64(cfg.LineSize)
			ln := lvl.line(addr)
			switch rng.Intn(4) {
			case 0:
				got, want := lvl.Lookup(addr), ref.lookup(ln)
				if got != want {
					t.Fatalf("start %d step %d: Lookup(%#x) = %v, reference %v", startClock, i, addr, got, want)
				}
			case 1:
				lvl.Insert(addr, false)
				ref.insert(ln)
			case 2: // touch fast path must equal n hit lookups
				if slot := lvl.mruSlot(ln); lvl.tags[slot] != 0 {
					tag := lvl.tags[slot]
					n := rng.Intn(3) + 1
					if !lvl.TouchLineN(slot, tag, n) {
						t.Fatalf("start %d step %d: touch of resident line failed", startClock, i)
					}
					for k := 0; k < n; k++ {
						ref.lookup(tag)
					}
				}
			default:
				got, want := lvl.ContainsLine(ln), false
				if _, ok := ref.sets[ln&ref.mask][ln]; ok {
					want = true
				}
				if got != want {
					t.Fatalf("start %d step %d: Contains(%#x) = %v, reference %v", startClock, i, addr, got, want)
				}
			}
		}
	}
}

// TestRingFillsEmptiesFirst pins the fill policy the ring inherits from the
// old first-empty scan: no eviction happens while the set has an empty way.
func TestRingFillsEmptiesFirst(t *testing.T) {
	cfg := Config{Name: "T", SizeBytes: 256, LineSize: 64, Ways: 4, LatencyCycles: 1}
	lvl, err := NewLevel(cfg) // one set, four ways
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		lvl.Insert(uint64(i*64), false)
		for j := 0; j <= i; j++ {
			if !lvl.ContainsLine(lvl.line(uint64(j * 64))) {
				t.Fatalf("after %d fills, line %d was evicted with empty ways available", i+1, j)
			}
		}
	}
	// Fifth insert must evict exactly the LRU (line 0).
	lvl.Insert(4*64, false)
	if lvl.ContainsLine(lvl.line(0)) {
		t.Fatal("LRU line survived a full-set fill")
	}
	for j := 1; j <= 4; j++ {
		if !lvl.ContainsLine(lvl.line(uint64(j * 64))) {
			t.Fatalf("non-LRU line %d evicted", j)
		}
	}
}
