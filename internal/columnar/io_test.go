package columnar

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, tb *Table) *Table {
	t.Helper()
	et, err := EncodeTable(tb, 2)
	if err != nil {
		t.Fatalf("EncodeTable: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteEncoded(&buf, et); err != nil {
		t.Fatalf("WriteEncoded: %v", err)
	}
	if et, err = ReadEncoded(&buf); err != nil {
		t.Fatalf("ReadEncoded: %v", err)
	}
	got, err := et.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestIORoundTripAllKinds(t *testing.T) {
	tb := NewTable("mixed")
	tb.MustAddColumn(NewInt64("i", []int64{-1, 0, 1, math.MaxInt64, math.MinInt64}))
	tb.MustAddColumn(NewInt32("j", []int32{-7, 0, 7, math.MaxInt32, math.MinInt32}))
	tb.MustAddColumn(NewFloat64("f", []float64{-0.5, 0, 1e300, math.Inf(1), math.SmallestNonzeroFloat64}))
	tb.MustAddColumn(NewDate("d", []int32{0, 8036, 10592, -365, 20000}))

	got := roundTrip(t, tb)
	if got.Name() != "mixed" || got.NumCols() != 4 || got.NumRows() != 5 {
		t.Fatalf("shape lost: %q %d cols %d rows", got.Name(), got.NumCols(), got.NumRows())
	}
	for _, name := range []string{"i", "j", "f", "d"} {
		want, have := tb.Column(name), got.Column(name)
		if have == nil {
			t.Fatalf("column %q missing", name)
		}
		if have.Kind() != want.Kind() {
			t.Errorf("column %q kind %v, want %v", name, have.Kind(), want.Kind())
		}
		for i := 0; i < want.Len(); i++ {
			if want.Kind() == Float64 {
				if math.Float64bits(want.Float64At(i)) != math.Float64bits(have.Float64At(i)) {
					t.Errorf("column %q row %d: %v != %v", name, i, have.Float64At(i), want.Float64At(i))
				}
			} else if want.Int64At(i) != have.Int64At(i) {
				t.Errorf("column %q row %d: %v != %v", name, i, have.Int64At(i), want.Int64At(i))
			}
		}
	}
}

func TestIOEmptyTable(t *testing.T) {
	got := roundTrip(t, NewTable("empty"))
	if got.Name() != "empty" || got.NumCols() != 0 {
		t.Error("empty table round trip failed")
	}
}

func TestIOBadInputs(t *testing.T) {
	if _, err := ReadEncoded(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadEncoded(strings.NewReader("JUNKJUNKJUNK")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated valid prefix.
	tb := NewTable("t")
	tb.MustAddColumn(NewInt64("a", []int64{1, 2, 3}))
	et, err := EncodeTable(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEncoded(&buf, et); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadEncoded(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input accepted")
	}
}

func TestIORoundTripProperty(t *testing.T) {
	f := func(i64 []int64, f64 []float64) bool {
		// Equalize lengths to satisfy the table invariant.
		n := len(i64)
		if len(f64) < n {
			n = len(f64)
		}
		tb := NewTable("prop")
		tb.MustAddColumn(NewInt64("a", i64[:n]))
		tb.MustAddColumn(NewFloat64("b", f64[:n]))
		got := roundTrip(t, tb)
		for i := 0; i < n; i++ {
			if got.Column("a").Int64At(i) != i64[i] {
				return false
			}
			if math.Float64bits(got.Column("b").Float64At(i)) != math.Float64bits(f64[i]) {
				return false
			}
		}
		return got.NumRows() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
