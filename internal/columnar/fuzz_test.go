package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzLoadTable drives the loader, ReadEncoded and Decode, with arbitrary
// bytes. The loader must never panic and never allocate out of proportion to the
// input (corrupt headers declaring huge row counts, truncated payloads, and
// oversize length fields are the interesting corpus directions — the
// chunked payload readers exist because of them). Valid inputs must
// round-trip: re-serializing the loaded table and loading it again yields
// the same table. A stream that carries the retired v1 header must be
// refused, never loaded.
func FuzzLoadTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	tb := randomTable(rng, 64)
	et, err := EncodeTable(tb, 16)
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteEncoded(&v2, et); err != nil {
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
	for _, s := range int32OutOfRange(f) {
		f.Add(s.corrupt)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		et, err := ReadEncoded(bytes.NewReader(data))
		if err != nil {
			return
		}
		loaded, err := et.Decode()
		if err != nil {
			return
		}
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == 1 {
			t.Fatal("a v1 stream yielded a table")
		}
		if et, err = EncodeTable(loaded, 16); err != nil {
			t.Fatalf("re-encoding accepted table: %v", err)
		}
		var out bytes.Buffer
		if err := WriteEncoded(&out, et); err != nil {
			t.Fatalf("re-serializing accepted table: %v", err)
		}
		if et, err = ReadEncoded(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("reloading re-serialized table: %v", err)
		}
		again, err := et.Decode()
		if err != nil {
			t.Fatalf("decoding re-serialized table: %v", err)
		}
		sameTable(t, loaded, again)
	})
}

// FuzzEncodeTable runs fuzzer-shaped columns through EncodeTable and
// through the map-based encoder kept in v2_ref_test.go: every output must
// match, and WriteEncoded -> ReadEncoded -> Decode must give back every
// value bit for bit. The reference orders a dictionary holding NaN by map
// iteration, so a table with a NaN keeps only the round trip.
func FuzzEncodeTable(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(64), uint32(0x03020100))
	f.Add(int64(2), uint16(4096), uint16(4096), uint32(0x07060504))
	f.Add(int64(3), uint16(1), uint16(1), uint32(0x0b0a0908))
	f.Add(int64(4), uint16(2000), uint16(97), uint32(0x0f0e0d0c))
	f.Add(int64(5), uint16(999), uint16(97), uint32(0x13121110))
	f.Add(int64(6), uint16(0), uint16(7), uint32(0x17161514))
	f.Fuzz(func(t *testing.T, seed int64, rows, blockRows uint16, shapes uint32) {
		n := int(rows) % 5000
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable("t")
		nan := false
		for i := 0; i < 4; i++ {
			c, hasNaN := fuzzColumn(rng, fmt.Sprintf("c%d", i), n, byte(shapes>>(8*i)))
			tb.MustAddColumn(c)
			nan = nan || hasNaN
		}
		got, err := EncodeTable(tb, 1+int(blockRows)%(n+64))
		if err != nil {
			t.Fatal(err)
		}
		if !nan {
			want, err := refEncodeTable(tb, got.BlockRows())
			if err != nil {
				t.Fatal(err)
			}
			sameEncoded(t, want, got)
		}
		var buf bytes.Buffer
		if err := WriteEncoded(&buf, got); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEncoded(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := back.Decode()
		if err != nil {
			t.Fatal(err)
		}
		sameTable(t, tb, dec)
	})
}

// fuzzColumn draws an n-row column: shape's low two bits pick the kind
// (Int64, Int32, Date, Float64), the rest the value domain. It reports
// whether it drew a NaN.
func fuzzColumn(rng *rand.Rand, name string, n int, shape byte) (*Column, bool) {
	domain := int(shape>>2) % 6
	if shape&3 == 3 {
		specials := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
			math.SmallestNonzeroFloat64, math.MaxFloat64}
		vals := make([]float64, n)
		nan := false
		for i := range vals {
			switch domain {
			case 0:
				vals[i] = specials[rng.Intn(len(specials))]
			case 1:
				vals[i] = float64(rng.Intn(11)) / 100
			case 2:
				vals[i] = rng.NormFloat64()
			default:
				vals[i] = float64(rng.Intn(1+domain*100) - 100)
			}
			nan = nan || math.IsNaN(vals[i])
		}
		return NewFloat64(name, vals), nan
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if shape&3 != 0 {
		lo, hi = math.MinInt32, math.MaxInt32
	}
	vals := make([]int64, n)
	for i := range vals {
		switch domain {
		case 0: // a range within the row count, indexed by value
			vals[i] = rng.Int63n(int64(n) + 1)
		case 1: // narrow and negative
			vals[i] = -1_000_000 - rng.Int63n(int64(n)/2+1)
		case 2: // few values far apart, hashed
			vals[i] = rng.Int63n(50) << 25
		case 3: // anything; Int32 and Date keep the low 32 bits
			vals[i] = int64(rng.Uint64())
		case 4: // the kind's extremes
			vals[i] = []int64{lo, hi, 0}[rng.Intn(3)]
		default:
			vals[i] = 7
		}
	}
	if shape&3 == 0 {
		return NewInt64(name, vals), false
	}
	narrow := make([]int32, n)
	for i, v := range vals {
		narrow[i] = int32(v)
	}
	if shape&3 == 1 {
		return NewInt32(name, narrow), false
	}
	return NewDate(name, narrow), false
}
