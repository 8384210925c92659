package columnar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// encodeLikeReference encodes tb with EncodeTable and with the map-based
// reference encoder (v2_ref_test.go) and fails unless the two agree in
// every output.
func encodeLikeReference(t testing.TB, tb *Table, blockRows int) *EncodedTable {
	t.Helper()
	want, err := refEncodeTable(tb, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeTable(tb, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	sameEncoded(t, want, got)
	return got
}

// sameEncoded compares two encodings of one table in every output: the
// chosen encoding, dictionary, codes, FoR references, widths and packed
// bytes, zone maps, plain payloads, and the written stream.
func sameEncoded(t testing.TB, want, got *EncodedTable) {
	t.Helper()
	if got.name != want.name || got.rows != want.rows || got.blockRows != want.blockRows || len(got.cols) != len(want.cols) {
		t.Fatalf("table %q: %d rows, %d per block, %d columns; reference %q: %d, %d, %d",
			got.name, got.rows, got.blockRows, len(got.cols), want.name, want.rows, want.blockRows, len(want.cols))
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, w := range want.cols {
		g := got.cols[i]
		if got.byName[g.name] != g {
			t.Fatalf("column %q is not found by its name", g.name)
		}
		if g.name != w.name || g.kind != w.kind || g.rows != w.rows || g.enc != w.enc || g.codeWidth != w.codeWidth {
			t.Fatalf("column %d: %q %v, %d rows, %v, code width %d; reference %q %v, %d rows, %v, code width %d",
				i, g.name, g.kind, g.rows, g.enc, g.codeWidth, w.name, w.kind, w.rows, w.enc, w.codeWidth)
		}
		if len(g.blocks) != len(w.blocks) {
			t.Fatalf("%s: %d blocks; reference %d", w.name, len(g.blocks), len(w.blocks))
		}
		for b, wb := range w.blocks {
			gb := g.blocks[b]
			if gb.Rows != wb.Rows || gb.MinBits != wb.MinBits || gb.MaxBits != wb.MaxBits || gb.NullFree != wb.NullFree ||
				gb.Ref != wb.Ref || gb.WidthBits != wb.WidthBits || !bytes.Equal(gb.Packed, wb.Packed) {
				t.Fatalf("%s block %d: %+v; reference %+v", w.name, b, gb, wb)
			}
		}
		switch {
		case !slices.Equal(g.dictI, w.dictI), !slices.EqualFunc(g.dictF, w.dictF, sameBits):
			t.Fatalf("%s: dictionary differs from the reference", w.name)
		case !slices.Equal(g.codes, w.codes):
			t.Fatalf("%s: codes differ from the reference", w.name)
		case !slices.Equal(g.plainI64, w.plainI64), !slices.Equal(g.plainI32, w.plainI32),
			!slices.EqualFunc(g.plainF64, w.plainF64, sameBits):
			t.Fatalf("%s: plain payload differs from the reference", w.name)
		}
	}
	var ws, gs bytes.Buffer
	if err := WriteEncoded(&ws, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteEncoded(&gs, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
		t.Fatal("written stream differs from the reference's")
	}
}

// scattered maps row i to one of k values in a scattered order; all k occur
// once the row count reaches k, because 7919 is a prime below k.
func scattered(i, k int) int64 { return int64(i * 7919 % k) }

// TestEncodeTableMatchesMapReference holds EncodeTable to the map-based
// encoder it replaced on the inputs where the two dictionary passes differ:
// integer ranges within the row count (indexed by value) and wider ones
// (hashed), negative values and the int64 and int32 extremes, 65 536 against
// 65 537 distinct values on both paths, and every kind, signed zeros
// included. Where want is set, the case also pins the encoding chosen.
func TestEncodeTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ints := func(f func(i int) int64) func(int) *Column {
		return func(n int) *Column {
			v := make([]int64, n)
			for i := range v {
				v[i] = f(i)
			}
			return NewInt64("c", v)
		}
	}
	int32s := func(mk func(string, []int32) *Column, f func(i int) int32) func(int) *Column {
		return func(n int) *Column {
			v := make([]int32, n)
			for i := range v {
				v[i] = f(i)
			}
			return mk("c", v)
		}
	}
	floats := func(f func(i int) float64) func(int) *Column {
		return func(n int) *Column {
			v := make([]float64, n)
			for i := range v {
				v[i] = f(i)
			}
			return NewFloat64("c", v)
		}
	}
	wide := make([]int64, 1000) // a thousand values scattered over ±2^40
	for i := range wide {
		wide[i] = rng.Int63n(1<<41) - 1<<40
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 0.05, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64}
	for _, c := range []struct {
		name string
		rows int
		col  func(int) *Column
		want string
	}{
		{"narrow int64", 5000, ints(func(int) int64 { return 1000 + rng.Int63n(3000) }), ""},
		{"narrow negative int64", 5000, ints(func(int) int64 { return -2000 + rng.Int63n(1500) }), ""},
		{"narrow int64 dictionary", 5000, ints(func(int) int64 { return 40 * rng.Int63n(100) }), "dict"},
		{"wide int64 dictionary", 5000, ints(func(int) int64 { return wide[rng.Intn(len(wide))] }), "dict"},
		{"wide negative int64", 3000, ints(func(int) int64 { return -rng.Int63() }), ""},
		{"int64 extremes", 3000, ints(func(int) int64 {
			switch rng.Intn(3) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return rng.Int63() - rng.Int63()
		}), ""},
		{"constant int64", 3000, ints(func(int) int64 { return -42 }), ""},
		{"int32 full range", 3000, int32s(NewInt32, func(int) int32 { return int32(rng.Uint32()) }), ""},
		{"narrow negative int32", 3000, int32s(NewInt32, func(int) int32 { return -5000 + int32(rng.Intn(2000)) }), ""},
		{"wide int32", 5000, int32s(NewInt32, func(int) int32 { return int32(wide[rng.Intn(len(wide))] >> 12) }), ""},
		{"dates", 5000, int32s(NewDate, func(int) int32 { return 7000 + int32(rng.Intn(2500)) }), ""},
		{"sorted dates", 5000, int32s(NewDate, func(i int) int32 { return 7000 + int32(i/3) }), "for"},
		{"65 536 distinct narrow", 70_000, ints(func(i int) int64 { return scattered(i, 1<<16) }), ""},
		{"65 537 distinct narrow", 70_000, ints(func(i int) int64 { return scattered(i, 1<<16+1) }), ""},
		{"65 536 distinct wide", 300_000, ints(func(i int) int64 { return scattered(i, 1<<16) << 24 }), "dict"},
		{"65 537 distinct wide", 300_000, ints(func(i int) int64 { return scattered(i, 1<<16+1) << 24 }), "for"},
		{"floats with signed zeros", 5000, floats(func(int) float64 { return specials[rng.Intn(len(specials))] }), "dict"},
		{"discount-like floats", 5000, floats(func(int) float64 { return float64(rng.Intn(11)) / 100 }), "dict"},
		{"high-cardinality floats", 3000, floats(func(int) float64 { return rng.NormFloat64() * 1e6 }), "plain"},
		{"65 536 distinct floats", 300_000, floats(func(i int) float64 { return float64(scattered(i, 1<<16)) / 7 }), "dict"},
		{"65 537 distinct floats", 300_000, floats(func(i int) float64 { return float64(scattered(i, 1<<16+1)) / 7 }), "plain"},
	} {
		tb := NewTable("t")
		tb.MustAddColumn(c.col(c.rows))
		for _, blockRows := range []int{97, 4096} {
			t.Run(fmt.Sprintf("%s/%d", c.name, blockRows), func(t *testing.T) {
				got := encodeLikeReference(t, tb, blockRows)
				if enc := got.Columns()[0].Encoding().String(); c.want != "" && enc != c.want {
					t.Errorf("encoded %s, want %s", enc, c.want)
				}
			})
		}
	}
}

// TestPackBitsMatchesBitAtATime holds the word-at-a-time packer and
// unpacker to the bit-at-a-time pair they replaced, at every width and at
// lengths that end inside a byte and inside a word. Bytes past the end of a
// payload do not reach the values.
func TestPackBitsMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for width := 0; width <= 64; width++ {
		for _, n := range []int{0, 1, 3, 7, 9, 13, 63, 65, 100, 129, 4097} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() >> (64 - width)
			}
			packed := packBits(vals, width)
			if want := refPackBits(vals, width); !bytes.Equal(packed, want) {
				t.Fatalf("width %d, %d values: packed % x, bit at a time % x", width, n, packed, want)
			}
			want, err := refUnpackBits(packed, n, width)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range [][]byte{packed, append(slices.Clip(packed), 0xff, 0xff, 0xff)} {
				got := make([]uint64, n)
				if err := unpackBits(got, src, width); err != nil {
					t.Fatalf("width %d, %d values: %v", width, n, err)
				}
				if !slices.Equal(got, want) || !slices.Equal(got, vals) {
					t.Fatalf("width %d, %d values: unpacked %v, want %v", width, n, got, vals)
				}
			}
		}
	}
	if err := unpackBits(make([]uint64, 9), []byte{0xff}, 1); err == nil {
		t.Error("a payload one byte short unpacked")
	}
	if err := unpackBits(nil, nil, 65); err == nil {
		t.Error("width 65 accepted")
	}
}

// outOfRangeStream is a written PCOL v2 stream and the same stream with one
// eight-byte field patched so that an Int32 or Date column no longer fits
// 32 bits.
type outOfRangeStream struct {
	name              string
	pristine, corrupt []byte
}

// int32OutOfRange builds two such streams: an Int32 dictionary entry patched
// to 1<<32|1<<30 (which truncates to 1<<30), and a Date column's last FoR
// block reference patched to three below MaxInt32, so reference + delta
// overflows from the block's fourth row on.
func int32OutOfRange(t testing.TB) []outOfRangeStream {
	t.Helper()
	stream := func(name string, c *Column, blockRows int, enc Encoding, old, patched int64) outOfRangeStream {
		tb := NewTable("t")
		tb.MustAddColumn(c)
		et, err := EncodeTable(tb, blockRows)
		if err != nil {
			t.Fatal(err)
		}
		if got := et.Columns()[0].Encoding(); got != enc {
			t.Fatalf("%s: encoded %v, want %v", name, got, enc)
		}
		var buf bytes.Buffer
		if err := WriteEncoded(&buf, et); err != nil {
			t.Fatal(err)
		}
		s := outOfRangeStream{name: name, pristine: buf.Bytes(), corrupt: slices.Clone(buf.Bytes())}
		var field [8]byte
		binary.LittleEndian.PutUint64(field[:], uint64(old))
		// The zone maps carry the same bits; the payload comes after them.
		at := bytes.LastIndex(s.corrupt, field[:])
		if at < 0 {
			t.Fatalf("%s: %d is not in the stream", name, old)
		}
		binary.LittleEndian.PutUint64(s.corrupt[at:], uint64(patched))
		return s
	}
	dict := make([]int32, 1000)
	dates := make([]int32, 1000)
	for i := range dict {
		dict[i] = 0x1234567 + int32(i%100)*100_000
		dates[i] = 9000 + int32(i)
	}
	return []outOfRangeStream{
		stream("int32 dictionary entry", NewInt32("d", dict), 1000, EncDict, 0x1234567, 1<<32|1<<30),
		stream("date FoR reference", NewDate("s", dates), 100, EncFoR, 9900, math.MaxInt32-3),
	}
}

// TestDecodeRejectsOutOfRangeInt32: a file whose Int32 or Date dictionary
// entry or FoR value does not fit 32 bits is an error, never a truncated
// value.
func TestDecodeRejectsOutOfRangeInt32(t *testing.T) {
	for _, s := range int32OutOfRange(t) {
		et, err := ReadEncoded(bytes.NewReader(s.pristine))
		if err != nil {
			t.Fatalf("%s: pristine stream rejected: %v", s.name, err)
		}
		if _, err := et.Decode(); err != nil {
			t.Fatalf("%s: pristine stream does not decode: %v", s.name, err)
		}
		if et, err = ReadEncoded(bytes.NewReader(s.corrupt)); err != nil {
			t.Fatalf("%s: the loader reads the stream, Decode must refuse it: %v", s.name, err)
		}
		tab, err := et.Decode()
		if err == nil {
			t.Errorf("%s: loaded, first values %v", s.name, tab.Columns()[0].I32()[:4])
			continue
		}
		if !strings.Contains(err.Error(), "outside the") {
			t.Errorf("%s: %v does not name the range", s.name, err)
		}
	}
}
