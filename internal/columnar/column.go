// Package columnar implements the in-memory column store the query engine
// scans: typed columns, tables, and a binary on-disk format. Each column is
// bound to a range of the simulated CPU's synthetic address space so that the
// cache hierarchy sees the exact access pattern a columnar layout produces
// (sequential for the first predicate, conditional-read for the rest — the
// two patterns of the paper's §3.1 cost model).
package columnar

import "fmt"

// Kind is the physical type of a column.
type Kind int

// Physical column types.
const (
	// Int64 is an 8-byte signed integer column.
	Int64 Kind = iota
	// Int32 is a 4-byte signed integer column.
	Int32
	// Float64 is an 8-byte IEEE-754 column.
	Float64
	// Date is a 4-byte column of days since 1970-01-01; comparisons are
	// integer comparisons, matching the paper's timestamp conversion (§2.1).
	Date
)

// String returns the SQL-ish type name.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Float64:
		return "float64"
	case Date:
		return "date"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Width returns the storage width of the kind in bytes.
func (k Kind) Width() int {
	switch k {
	case Int64, Float64:
		return 8
	case Int32, Date:
		return 4
	}
	return 0
}

// Column is one typed, contiguously stored attribute.
type Column struct {
	name  string
	kind  Kind
	width int // cached kind.Width(): Addr sits on the per-tuple hot path
	i64   []int64
	i32   []int32
	f64   []float64
	base  uint64
	bound bool
}

// NewInt64 builds an int64 column. The slice is owned by the column.
func NewInt64(name string, data []int64) *Column {
	return &Column{name: name, kind: Int64, width: Int64.Width(), i64: data}
}

// NewInt32 builds an int32 column.
func NewInt32(name string, data []int32) *Column {
	return &Column{name: name, kind: Int32, width: Int32.Width(), i32: data}
}

// NewFloat64 builds a float64 column.
func NewFloat64(name string, data []float64) *Column {
	return &Column{name: name, kind: Float64, width: Float64.Width(), f64: data}
}

// NewDate builds a date column from days since 1970-01-01.
func NewDate(name string, days []int32) *Column {
	return &Column{name: name, kind: Date, width: Date.Width(), i32: days}
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the physical type.
func (c *Column) Kind() Kind { return c.kind }

// Width returns the per-value width in bytes.
func (c *Column) Width() int { return c.width }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.kind {
	case Int64:
		return len(c.i64)
	case Int32, Date:
		return len(c.i32)
	case Float64:
		return len(c.f64)
	}
	return 0
}

// SizeBytes returns the storage footprint.
func (c *Column) SizeBytes() int { return c.Len() * c.Width() }

// Bind assigns the column's base in the simulated address space and marks the
// column bound. Any base — including 0 — is legitimate; use Bound to test
// binding state rather than comparing Base against a sentinel.
func (c *Column) Bind(base uint64) {
	c.base = base
	c.bound = true
}

// Bound reports whether the column has been bound into an address space.
func (c *Column) Bound() bool { return c.bound }

// Base returns the bound base address (0 if unbound).
func (c *Column) Base() uint64 { return c.base }

// Addr returns the simulated address of row i.
func (c *Column) Addr(i int) uint64 { return c.base + uint64(i)*uint64(c.width) }

// Int64At returns row i widened to int64 (valid for Int64, Int32, Date).
func (c *Column) Int64At(i int) int64 {
	switch c.kind {
	case Int64:
		return c.i64[i]
	case Int32, Date:
		return int64(c.i32[i])
	}
	panic(fmt.Sprintf("columnar: Int64At on %v column %q", c.kind, c.name))
}

// Float64At returns row i as float64 (valid for any kind).
func (c *Column) Float64At(i int) float64 {
	switch c.kind {
	case Float64:
		return c.f64[i]
	case Int64:
		return float64(c.i64[i])
	case Int32, Date:
		return float64(c.i32[i])
	}
	panic(fmt.Sprintf("columnar: Float64At on %v column %q", c.kind, c.name))
}

// I64 exposes the raw int64 payload (nil for other kinds).
func (c *Column) I64() []int64 { return c.i64 }

// I32 exposes the raw int32/date payload (nil for other kinds).
func (c *Column) I32() []int32 { return c.i32 }

// F64 exposes the raw float64 payload (nil for other kinds).
func (c *Column) F64() []float64 { return c.f64 }

// IntRange returns the smallest and largest value of an integer-kind column
// (Int64, Int32 or Date), widened to int64. An empty column, or one of
// another kind, reports the empty range (0, -1).
func (c *Column) IntRange() (lo, hi int64) {
	switch c.kind {
	case Int64:
		return minMax(c.i64)
	case Int32, Date:
		return minMax(c.i32)
	}
	return 0, -1
}

func minMax[T int32 | int64](s []T) (lo, hi int64) {
	if len(s) == 0 {
		return 0, -1
	}
	l, h := s[0], s[0]
	for _, v := range s[1:] {
		if v < l {
			l = v
		}
		if v > h {
			h = v
		}
	}
	return int64(l), int64(h)
}
