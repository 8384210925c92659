package columnar

import (
	"math"
	"testing"
)

func TestKindProperties(t *testing.T) {
	cases := []struct {
		k     Kind
		name  string
		width int
	}{
		{Int64, "int64", 8},
		{Int32, "int32", 4},
		{Float64, "float64", 8},
		{Date, "date", 4},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.k, c.k.String(), c.name)
		}
		if c.k.Width() != c.width {
			t.Errorf("%v.Width() = %d, want %d", c.k, c.k.Width(), c.width)
		}
	}
	if Kind(99).Width() != 0 {
		t.Error("unknown kind must have zero width")
	}
}

func TestColumnAccessors(t *testing.T) {
	ci := NewInt64("q", []int64{1, 2, 3})
	if ci.Len() != 3 || ci.Name() != "q" || ci.Kind() != Int64 {
		t.Fatalf("basic accessors wrong: %v %v %v", ci.Len(), ci.Name(), ci.Kind())
	}
	if ci.Int64At(1) != 2 || ci.Float64At(2) != 3.0 {
		t.Error("value accessors wrong")
	}
	if ci.SizeBytes() != 24 {
		t.Errorf("SizeBytes = %d, want 24", ci.SizeBytes())
	}

	cf := NewFloat64("d", []float64{0.5, 1.5})
	if cf.Float64At(0) != 0.5 {
		t.Error("float access wrong")
	}

	cd := NewDate("ship", []int32{8036, 8037})
	if cd.Kind() != Date || cd.Int64At(0) != 8036 {
		t.Error("date column wrong")
	}

	c32 := NewInt32("k", []int32{7})
	if c32.Int64At(0) != 7 || c32.Float64At(0) != 7.0 {
		t.Error("int32 widening wrong")
	}
}

func TestColumnAddr(t *testing.T) {
	c := NewInt64("x", make([]int64, 10))
	c.Bind(0x10000)
	if c.Base() != 0x10000 {
		t.Error("Base not set")
	}
	if c.Addr(0) != 0x10000 || c.Addr(3) != 0x10000+24 {
		t.Errorf("Addr wrong: %#x %#x", c.Addr(0), c.Addr(3))
	}
	d := NewDate("y", make([]int32, 10))
	d.Bind(0x20000)
	if d.Addr(5) != 0x20000+20 {
		t.Errorf("date Addr wrong: %#x", d.Addr(5))
	}
}

func TestInt64AtPanicsOnFloat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int64At on float column did not panic")
		}
	}()
	NewFloat64("f", []float64{1}).Int64At(0)
}

func TestIntRange(t *testing.T) {
	for _, c := range []struct {
		col    *Column
		lo, hi int64
	}{
		{NewInt64("i64", []int64{5, -3, 9, 0}), -3, 9},
		{NewInt64("wide", []int64{math.MaxInt64, math.MinInt64}), math.MinInt64, math.MaxInt64},
		{NewInt32("i32", []int32{-7, -2, -9}), -9, -2},
		{NewDate("date", []int32{8037, 8036, 10591}), 8036, 10591},
		{NewInt64("one", []int64{-4}), -4, -4},
		{NewDate("one date", []int32{42}), 42, 42},
		{NewInt32("empty", nil), 0, -1},
		{NewFloat64("float", []float64{1, 2}), 0, -1},
	} {
		if lo, hi := c.col.IntRange(); lo != c.lo || hi != c.hi {
			t.Errorf("%s: IntRange = [%d, %d], want [%d, %d]", c.col.Name(), lo, hi, c.lo, c.hi)
		}
	}
}

func TestTableInvariants(t *testing.T) {
	tb := NewTable("lineitem")
	if tb.NumRows() != 0 || tb.NumCols() != 0 {
		t.Error("empty table not empty")
	}
	if err := tb.AddColumn(NewInt64("a", []int64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn(NewInt64("b", []int64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn(NewInt64("a", []int64{5, 6})); err == nil {
		t.Error("duplicate column name accepted")
	}
	if err := tb.AddColumn(NewInt64("c", []int64{1})); err == nil {
		t.Error("length-mismatched column accepted")
	}
	if err := tb.AddColumn(nil); err == nil {
		t.Error("nil column accepted")
	}
	if tb.NumRows() != 2 || tb.NumCols() != 2 {
		t.Errorf("rows/cols = %d/%d, want 2/2", tb.NumRows(), tb.NumCols())
	}
	if tb.Column("b") == nil || tb.Column("zz") != nil {
		t.Error("Column lookup wrong")
	}
}

type fakeAlloc struct{ next uint64 }

func (f *fakeAlloc) Alloc(size int) (uint64, error) {
	base := f.next
	f.next += uint64(size) + 4096
	return base, nil
}

func TestBindAll(t *testing.T) {
	tb := NewTable("t")
	tb.MustAddColumn(NewInt64("a", make([]int64, 100)))
	tb.MustAddColumn(NewFloat64("b", make([]float64, 100)))
	a := &fakeAlloc{next: 0x1000}
	if err := tb.BindAll(a); err != nil {
		t.Fatal(err)
	}
	ca, cb := tb.Column("a"), tb.Column("b")
	if ca.Base() == cb.Base() {
		t.Error("columns share a base address")
	}
	// Ranges must not overlap.
	if ca.Base() < cb.Base() && ca.Addr(99)+8 > cb.Base() {
		t.Error("column address ranges overlap")
	}
}
