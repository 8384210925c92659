package service

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
)

// computeRef is the fingerprint as it was first defined: hash/fnv's 128-bit
// FNV-1a over the length-prefixed table term, the little-endian generation
// and the length-prefixed terms, sorted on a copy.
func computeRef(table string, generation uint64, terms []string) Fingerprint {
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	h := fnv.New128a()
	term := func(t string) {
		n := len(t)
		h.Write([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)})
		h.Write([]byte(t))
	}
	term("t|" + table)
	var gen [8]byte
	for i := range gen {
		gen[i] = byte(generation >> (8 * i))
	}
	h.Write(gen[:])
	for _, t := range sorted {
		term(t)
	}
	var f Fingerprint
	copy(f[:], h.Sum(nil))
	return f
}

// TestComputeMatchesReference: on random tables, generations and term sets,
// given as strings and as spans of one buffer, Compute and ComputeSpans
// return computeRef's bytes.
func TestComputeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			b = append(b[:0:0], "f|l_quantity|<|i:2"...)
		}
		return string(b)
	}
	for n := 0; n < 500; n++ {
		table, gen := word(), rng.Uint64()
		terms := make([]string, rng.Intn(9))
		var buf []byte
		var spans [][2]int
		for i := range terms {
			terms[i] = word()
			spans = append(spans, [2]int{len(buf), len(buf) + len(terms[i])})
			buf = append(buf, terms[i]...)
		}
		want := computeRef(table, gen, terms)
		if got := ComputeSpans(table, gen, buf, spans); got != want {
			t.Fatalf("case %d: spans %s, reference %s", n, got, want)
		}
		if got := Compute(table, gen, terms); got != want {
			t.Fatalf("case %d: strings %s, reference %s", n, got, want)
		}
	}
}

// TestComputeAllocatesNothing: hashing sorts and reads the caller's terms and
// builds nothing.
func TestComputeAllocatesNothing(t *testing.T) {
	terms := []string{"f|l_shipdate|<=|i:9500", "f|l_quantity|<|i:24", "s|l_discount*l_extendedprice"}
	buf := []byte("f|l_shipdate|<=|i:9500f|l_quantity|<|i:24")
	spans := [][2]int{{0, 22}, {22, 41}}
	if n := testing.AllocsPerRun(100, func() { Compute("lineitem", 3, terms) }); n != 0 {
		t.Errorf("Compute allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { ComputeSpans("lineitem", 3, buf, spans) }); n != 0 {
		t.Errorf("ComputeSpans allocates %v times", n)
	}
}

func TestFingerprintOrderIndependent(t *testing.T) {
	a := Compute("lineitem", 1, []string{"f|l_shipdate|<=|i:9000", "f|l_quantity|<|i:24", "j|orders|x:0x1p-01"})
	b := Compute("lineitem", 1, []string{"j|orders|x:0x1p-01", "f|l_quantity|<|i:24", "f|l_shipdate|<=|i:9000"})
	if a != b {
		t.Errorf("step order changed the fingerprint: %s vs %s", a, b)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Compute("lineitem", 1, []string{"f|l_quantity|<|i:24"})
	cases := map[string]Fingerprint{
		"bound":      Compute("lineitem", 1, []string{"f|l_quantity|<|i:25"}),
		"op":         Compute("lineitem", 1, []string{"f|l_quantity|<=|i:24"}),
		"column":     Compute("lineitem", 1, []string{"f|l_discount|<|i:24"}),
		"generation": Compute("lineitem", 2, []string{"f|l_quantity|<|i:24"}),
		"table":      Compute("orders", 1, []string{"f|l_quantity|<|i:24"}),
		"extra step": Compute("lineitem", 1, []string{"f|l_quantity|<|i:24", "f|l_quantity|<|i:24"}),
	}
	for name, fp := range cases {
		if fp == base {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
	if base.Zero() {
		t.Error("computed fingerprint is zero")
	}
}

// TestFingerprintNoAliasing: term boundaries are length-prefixed, so
// splitting content differently across terms must not collide.
func TestFingerprintNoAliasing(t *testing.T) {
	a := Compute("t", 1, []string{"ab", "c"})
	b := Compute("t", 1, []string{"a", "bc"})
	if a == b {
		t.Error("term boundary aliasing")
	}
}

func TestLRUEviction(t *testing.T) {
	l := NewLRU(2)
	k := func(i byte) Fingerprint { var f Fingerprint; f[0] = i; return f }
	l.Put(k(1), 1)
	l.Put(k(2), 2)
	if _, ok := l.Get(k(1)); !ok { // touches 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	l.Put(k(3), 3)
	if _, ok := l.Get(k(2)); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := l.Get(k(1)); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if _, ok := l.Get(k(3)); !ok {
		t.Error("new entry 3 missing")
	}
	if l.Evictions() != 1 || l.Len() != 2 {
		t.Errorf("evictions=%d len=%d", l.Evictions(), l.Len())
	}
	// Refreshing an existing key must not evict.
	l.Put(k(3), 33)
	if v, _ := l.Get(k(3)); v.(int) != 33 {
		t.Error("refresh did not replace value")
	}
	if l.Evictions() != 1 {
		t.Error("refresh evicted")
	}
}
