package columnar

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzLoadTable drives the loader with arbitrary bytes.
// The loader must never panic and never allocate out of proportion to the
// input (corrupt headers declaring huge row counts, truncated payloads, and
// oversize length fields are the interesting corpus directions — the
// chunked payload readers exist because of them). Valid inputs must
// round-trip: re-serializing the loaded table and loading it again yields
// the same table. A stream that carries the retired v1 header must be
// refused, never loaded.
func FuzzLoadTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	tb := randomTable(rng, 64)
	var v2 bytes.Buffer
	if err := WriteTableV2(&v2, tb, 16); err != nil {
		f.Fatal(err)
	}
	v1 := v1Stream(7, 8, 9)
	f.Add(v1)
	f.Add(v2.Bytes())
	// Corrupt variants seed the mutator near the validation branches.
	hugeRows := append([]byte(nil), v1...)
	copy(hugeRows[26:34], []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(hugeRows)
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	f.Add([]byte("PCOL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == 1 {
			t.Fatal("a v1 stream yielded a table")
		}
		var out bytes.Buffer
		if err := WriteTableV2(&out, loaded, 16); err != nil {
			t.Fatalf("re-serializing accepted table: %v", err)
		}
		again, err := LoadTable(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reloading re-serialized table: %v", err)
		}
		sameTable(t, loaded, again)
	})
}
