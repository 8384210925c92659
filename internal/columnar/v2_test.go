package columnar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomTable builds a table exercising every kind and value-shape corner:
// low cardinality (dict bait), narrow ranges (FoR bait), full-range int64
// extremes (wrapping delta math), and high-cardinality floats (plain).
func randomTable(rng *rand.Rand, rows int) *Table {
	t := NewTable("t")
	lowCard := make([]int64, rows)
	narrow := make([]int64, rows)
	extreme := make([]int64, rows)
	smallI32 := make([]int32, rows)
	dates := make([]int32, rows)
	lowF := make([]float64, rows)
	wideF := make([]float64, rows)
	for i := 0; i < rows; i++ {
		lowCard[i] = int64(rng.Intn(7))
		narrow[i] = 1_000_000 + int64(rng.Intn(100_000))
		switch rng.Intn(4) {
		case 0:
			extreme[i] = math.MinInt64
		case 1:
			extreme[i] = math.MaxInt64
		default:
			extreme[i] = rng.Int63() - rng.Int63()
		}
		smallI32[i] = int32(rng.Intn(1 << 20))
		dates[i] = 7000 + int32(rng.Intn(2500))
		lowF[i] = float64(rng.Intn(11)) / 100
		wideF[i] = rng.NormFloat64() * 1e6
	}
	if rows > 0 {
		lowF[rng.Intn(rows)] = math.Copysign(0, -1) // signed zero round-trips by bits
	}
	t.MustAddColumn(NewInt64("low_card", lowCard))
	t.MustAddColumn(NewInt64("narrow", narrow))
	t.MustAddColumn(NewInt64("extreme", extreme))
	t.MustAddColumn(NewInt32("small_i32", smallI32))
	t.MustAddColumn(NewDate("dates", dates))
	t.MustAddColumn(NewFloat64("low_f", lowF))
	t.MustAddColumn(NewFloat64("wide_f", wideF))
	return t
}

// sameTable compares every value of two tables by bit pattern.
func sameTable(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Name() != got.Name() {
		t.Fatalf("name %q != %q", got.Name(), want.Name())
	}
	if want.NumCols() != got.NumCols() || want.NumRows() != got.NumRows() {
		t.Fatalf("shape (%d cols, %d rows) != (%d cols, %d rows)",
			got.NumCols(), got.NumRows(), want.NumCols(), want.NumRows())
	}
	for i, wc := range want.Columns() {
		gc := got.Columns()[i]
		if wc.Name() != gc.Name() || wc.Kind() != gc.Kind() {
			t.Fatalf("column %d: (%q, %v) != (%q, %v)", i, gc.Name(), gc.Kind(), wc.Name(), wc.Kind())
		}
		switch wc.Kind() {
		case Int64:
			for r, v := range wc.I64() {
				if gc.I64()[r] != v {
					t.Fatalf("%s[%d] = %d, want %d", wc.Name(), r, gc.I64()[r], v)
				}
			}
		case Int32, Date:
			for r, v := range wc.I32() {
				if gc.I32()[r] != v {
					t.Fatalf("%s[%d] = %d, want %d", wc.Name(), r, gc.I32()[r], v)
				}
			}
		case Float64:
			for r, v := range wc.F64() {
				if math.Float64bits(gc.F64()[r]) != math.Float64bits(v) {
					t.Fatalf("%s[%d] = %v, want %v (bits differ)", wc.Name(), r, gc.F64()[r], v)
				}
			}
		}
	}
}

// TestEncodeDecodeRoundTrip fuzzes EncodeTable/Decode over random tables and
// block geometries, including blocks of one row and non-dividing sizes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows := rng.Intn(3000)
		blockRows := 1 + rng.Intn(rows+2)
		tb := randomTable(rng, rows)
		et, err := EncodeTable(tb, blockRows)
		if err != nil {
			t.Fatalf("trial %d (rows %d, block %d): %v", trial, rows, blockRows, err)
		}
		dec, err := et.Decode()
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		sameTable(t, tb, dec)
	}
}

// TestV2FileRoundTrip pins the full disk path: encode, serialize, reload via
// ReadEncoded and Decode.
func TestV2FileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(rng, 2500)
	for _, blockRows := range []int{1, 7, 512, 2500, 4096} {
		et, err := EncodeTable(tb, blockRows)
		if err != nil {
			t.Fatalf("block %d: encode: %v", blockRows, err)
		}
		var buf bytes.Buffer
		if err := WriteEncoded(&buf, et); err != nil {
			t.Fatalf("block %d: write: %v", blockRows, err)
		}
		et, err = ReadEncoded(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("block %d: read encoded: %v", blockRows, err)
		}
		if et.BlockRows() != blockRows {
			t.Fatalf("block rows %d, want %d", et.BlockRows(), blockRows)
		}
		dec, err := et.Decode()
		if err != nil {
			t.Fatalf("block %d: decode: %v", blockRows, err)
		}
		sameTable(t, tb, dec)
	}
}

// v1Stream hand-assembles a well-formed PCOL v1 stream — the retired format,
// which no writer produces any more: one int64 column "a" of table "t".
func v1Stream(vals ...int64) []byte {
	var b bytes.Buffer
	b.WriteString(formatMagic)
	le := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	le(uint32(1)) // version
	le(uint32(1)) // table name
	b.WriteString("t")
	le(uint32(1)) // columns
	le(uint32(1)) // column name
	b.WriteString("a")
	le(uint32(Int64))
	le(uint64(len(vals)))
	le(vals)
	return b.Bytes()
}

// TestLoadTableRejectsV1: a v1 file is recognised and refused by the loader
// with the typed error that says what to do about it.
func TestLoadTableRejectsV1(t *testing.T) {
	_, err := ReadEncoded(bytes.NewReader(v1Stream(1, 2, 3)))
	var uv *UnsupportedVersionError
	if !errors.As(err, &uv) || uv.Version != 1 {
		t.Fatalf("ReadEncoded on a v1 stream: %v, want *UnsupportedVersionError{1}", err)
	}
	if !strings.Contains(err.Error(), "regenerate with tpchgen") {
		t.Errorf("error %q does not say how to recover", err)
	}
}

// TestEncodingChoices pins the size-driven encoding selection on the column
// shapes the TPC-H generator produces.
func TestEncodingChoices(t *testing.T) {
	rows := 4096
	rng := rand.New(rand.NewSource(2))
	lowCard := make([]float64, rows)
	seq := make([]int64, rows)
	wide := make([]float64, rows)
	for i := range lowCard {
		lowCard[i] = float64(rng.Intn(11)) / 100
		seq[i] = int64(i) * 3
		wide[i] = rng.NormFloat64()
	}
	tb := NewTable("t")
	tb.MustAddColumn(NewFloat64("low", lowCard))
	tb.MustAddColumn(NewInt64("seq", seq))
	tb.MustAddColumn(NewFloat64("wide", wide))
	et, err := EncodeTable(tb, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := et.Column("low").Encoding(); got != EncDict {
		t.Errorf("low-cardinality float encoded %v, want dict", got)
	}
	if got := et.Column("seq").Encoding(); got != EncFoR {
		t.Errorf("narrow-range int encoded %v, want FoR", got)
	}
	if got := et.Column("wide").Encoding(); got != EncPlain {
		t.Errorf("high-cardinality float encoded %v, want plain", got)
	}
	for _, name := range []string{"low", "seq"} {
		c := et.Column(name)
		if c.EncodedBytes() >= c.PlainBytes() {
			t.Errorf("%s: encoded %d bytes >= plain %d", name, c.EncodedBytes(), c.PlainBytes())
		}
	}
}

// TestZoneMaps checks per-block min/max against a direct scan.
func TestZoneMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows, blockRows := 1000, 96
	tb := randomTable(rng, rows)
	et, err := EncodeTable(tb, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	ec := et.Column("extreme")
	vals := tb.Column("extreme").I64()
	blockSpans(rows, blockRows, func(i, lo, hi int) {
		wantMin, wantMax := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		gotMin, gotMax := ec.ZoneInt(i)
		if gotMin != wantMin || gotMax != wantMax {
			t.Errorf("block %d zone [%d,%d], want [%d,%d]", i, gotMin, gotMax, wantMin, wantMax)
		}
		if !ec.Block(i).NullFree {
			t.Errorf("block %d not marked null-free", i)
		}
	})
	fc := et.Column("wide_f")
	fvals := tb.Column("wide_f").F64()
	blockSpans(rows, blockRows, func(i, lo, hi int) {
		wantMin, wantMax := fvals[lo], fvals[lo]
		for _, v := range fvals[lo+1 : hi] {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		gotMin, gotMax := fc.ZoneFloat(i)
		if gotMin != wantMin || gotMax != wantMax {
			t.Errorf("float block %d zone [%g,%g], want [%g,%g]", i, gotMin, gotMax, wantMin, wantMax)
		}
	})
}

// TestPackBitsRoundTrip fuzzes the bit packer across widths 0..64.
func TestPackBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for width := 0; width <= 64; width++ {
		n := 1 + rng.Intn(200)
		vals := make([]uint64, n)
		for i := range vals {
			if width == 64 {
				vals[i] = rng.Uint64()
			} else {
				vals[i] = rng.Uint64() & (1<<uint(width) - 1)
			}
		}
		packed := packBits(vals, width)
		if want := (n*width + 7) / 8; len(packed) != want {
			t.Fatalf("width %d: packed %d bytes, want %d", width, len(packed), want)
		}
		got := make([]uint64, n)
		if err := unpackBits(got, packed, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d: value %d = %d, want %d", width, i, got[i], vals[i])
			}
		}
	}
}

// TestV2Corruptions flips fields of a valid v2 stream and checks rejection.
func TestV2Corruptions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tb := randomTable(rng, 300)
	et, err := EncodeTable(tb, 64)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEncoded(&buf, et); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if et, err = ReadEncoded(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	if _, err := et.Decode(); err != nil {
		t.Fatalf("pristine stream does not decode: %v", err)
	}
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), good...)
		f(b)
		if _, err := ReadEncoded(bytes.NewReader(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	mutate("bad version", func(b []byte) { b[4] = 99 })
	mutate("zero block rows", func(b []byte) {
		// name "t" (1 byte) follows magic+version+nameLen; then numCols u32.
		// blockRows u32 lives at 4+4+4+1+4 = 17.
		copy(b[17:21], []byte{0, 0, 0, 0})
	})
	mutate("huge block rows", func(b []byte) {
		copy(b[17:21], []byte{0xff, 0xff, 0xff, 0xff})
	})
	mutate("huge row count", func(b []byte) {
		copy(b[21:29], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	})
	// Truncations at every boundary must error, never panic.
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := ReadEncoded(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(good))
		}
	}
}
