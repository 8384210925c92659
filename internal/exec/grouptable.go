package exec

import (
	"math"
	"slices"
)

// groupTable is the host-side accumulator of a grouped aggregation: an
// open-addressing table whose slots hold the group row and, inline behind it,
// the set of simulated cores whose partial tables hold the key. A qualifying
// row costs one linear-probe lookup that lands on one contiguous slot and
// updates sum, count and presence in place — no per-group pointer chase, no
// per-insert allocation, no second table for the merge barrier.
//
// A slot is stride consecutive words: key, sum (float64 bits), count, then
// ⌈cores/64⌉ presence words (bit c of the set: core c's partial table holds
// the key). The stride is fixed per run, so any core count takes the same
// path; with up to 64 cores a slot is 32 bytes. A claimed slot has count ≥ 1
// (add is the only writer), so count doubles as the occupancy mark: keys and
// sums are domain values and offer no sentinel.
//
// One probe loop serves two index functions, chosen at reset from the key
// domain the compiler proved (KeyDomain). A dense domain indexes by key − Min
// in a table sized to the domain: keys never collide, the table never grows,
// and the occupied slots lie in key order. A wide domain hashes
// multiplicatively at a load factor of at most ½ and grows past ¾.
//
// The table is a host structure: the *simulated* tables the cache hierarchies
// see are each GroupBy's reserved address region (slotAddr), indexed by the
// same rule (keyIndex) without the presence words. Group values accumulate
// per key in exactly the order add is called — the global row order the
// drivers establish — so sums are bit-identical to a map-based reduction, and
// output is sorted by key, independent of table internals.
//
// A table is owned by the query's block-run context (BlockRun; a serial
// Engine has its own) and reset, not reallocated, at the start of every
// grouped run: whatever an earlier run left behind — a failed one included —
// is gone before the first row of the next is added.
type groupTable struct {
	slots  []uint64
	stride int
	keyIndex
	n int
	// order is sorted's reusable result.
	order []groupRef
}

// Word offsets inside a slot.
const (
	slotKey = iota
	slotSum
	slotCount
	slotPresence
)

// groupRef names one occupied slot: its key and the offset of its first word.
type groupRef struct {
	key int64
	at  int
}

// groupHashMul is the multiplicative hash of a wide key domain.
const groupHashMul = 2654435761

// reset empties the table and sizes it for the key domain, with presence bits
// for the given number of cores. A dense domain gets room for all its keys
// under the ¾ growth threshold; a wide one a load factor of at most ½ if the
// estimate holds (growth covers under-estimates). The slot array is reused
// whenever it is large enough.
func (t *groupTable) reset(dom KeyDomain, cores int) {
	buckets := 16
	if dom.Dense {
		for 3*buckets < 4*(dom.Groups+1) {
			buckets <<= 1
		}
	} else {
		for buckets < 2*dom.Groups {
			buckets <<= 1
		}
	}
	t.stride = slotPresence + (cores+63)/64
	if need := buckets * t.stride; cap(t.slots) < need {
		t.slots = make([]uint64, need)
	} else {
		t.slots = t.slots[:need]
		clear(t.slots)
	}
	t.keyIndex = dom.index(uint64(buckets))
	t.n = 0
}

// keyIndex is a key domain's one index rule, shared by the host accumulator
// and the simulated tables (GroupBy.slotAddr): a key's home slot is
// ((key − lo) · mul) & mask.
type keyIndex struct{ lo, mul, mask uint64 }

// index returns the domain's index rule over a power-of-two number of
// buckets: key − Min for a dense domain, whose tables have a bucket for every
// key, so the mask never bites; the multiplicative hash for a wide one.
func (d KeyDomain) index(buckets uint64) keyIndex {
	if d.Dense {
		return keyIndex{lo: uint64(d.Min), mul: 1, mask: buckets - 1}
	}
	return keyIndex{mul: groupHashMul, mask: buckets - 1}
}

// home returns key's home slot.
func (x keyIndex) home(key uint64) uint64 {
	return ((key - x.lo) * x.mul) & x.mask
}

// add folds one qualifying row into key's group and records that core's
// partial table holds the key, claiming a slot on first sight.
func (t *groupTable) add(key int64, v float64, core int) {
	if 4*(t.n+1) > 3*int(t.mask+1) {
		t.grow()
	}
	idx := t.home(uint64(key))
	for {
		s := t.slots[int(idx)*t.stride:][:t.stride]
		if s[slotCount] == 0 {
			s[slotKey] = uint64(key)
			t.n++
		} else if int64(s[slotKey]) != key {
			idx = (idx + 1) & t.mask
			continue
		}
		s[slotSum] = math.Float64bits(math.Float64frombits(s[slotSum]) + v)
		s[slotCount]++
		s[slotPresence+core>>6] |= 1 << (core & 63)
		return
	}
}

// grow doubles the table, reinserting occupied slots whole: accumulated sums,
// counts and presence sets are preserved bit for bit.
func (t *groupTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.mask = 2*t.mask + 1
	for at := 0; at < len(old); at += t.stride {
		if old[at+slotCount] == 0 {
			continue
		}
		idx := t.home(old[at+slotKey])
		for t.slots[int(idx)*t.stride+slotCount] != 0 {
			idx = (idx + 1) & t.mask
		}
		copy(t.slots[int(idx)*t.stride:], old[at:at+t.stride])
	}
}

// sorted returns the occupied slots in ascending key order: the one
// deterministic iteration order a grouped run needs, for its output rows and
// for its merge barrier alike. The slots of a dense domain already lie in key
// order, and then the one pass that collects them is all it costs. Valid
// until the next sorted or reset.
func (t *groupTable) sorted() []groupRef {
	t.order = t.order[:0]
	ordered := true
	for at := 0; at < len(t.slots); at += t.stride {
		if t.slots[at+slotCount] != 0 {
			key := int64(t.slots[at+slotKey])
			if n := len(t.order); n > 0 && t.order[n-1].key > key {
				ordered = false
			}
			t.order = append(t.order, groupRef{key: key, at: at})
		}
	}
	if ordered {
		return t.order
	}
	slices.SortFunc(t.order, func(a, b groupRef) int {
		if a.key < b.key { // keys are distinct
			return -1
		}
		return 1
	})
	return t.order
}

// has reports whether core's partial table holds ref's key.
func (t *groupTable) has(ref groupRef, core int) bool {
	return t.slots[ref.at+slotPresence+core>>6]&(1<<(core&63)) != 0
}

// groups copies the slots named by refs into freshly allocated output rows.
func (t *groupTable) groups(refs []groupRef) []Group {
	out := make([]Group, len(refs))
	for i, ref := range refs {
		s := t.slots[ref.at:][:slotPresence]
		out[i] = Group{Key: ref.key, Sum: math.Float64frombits(s[slotSum]), Count: int64(s[slotCount])}
	}
	return out
}
