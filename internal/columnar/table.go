package columnar

import "fmt"

// Table is a named set of equal-length columns.
type Table struct {
	name   string
	cols   []*Column
	byName map[string]int
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, byName: make(map[string]int)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// AddColumn appends a column; its length must match existing columns and its
// name must be unique within the table.
func (t *Table) AddColumn(c *Column) error {
	if c == nil {
		return fmt.Errorf("columnar: nil column added to table %q", t.name)
	}
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("columnar: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.cols) > 0 && c.Len() != t.cols[0].Len() {
		return fmt.Errorf("columnar: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.cols[0].Len())
	}
	t.byName[c.Name()] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// MustAddColumn is AddColumn that panics on error, for construction code with
// statically distinct names.
func (t *Table) MustAddColumn(c *Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// Column returns the column with the given name, or nil.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.cols[i]
}

// Columns returns the columns in insertion order (shared slice header copy;
// do not mutate).
func (t *Table) Columns() []*Column { return t.cols }

// NumRows returns the row count (0 for an empty table).
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Allocator reserves ranges of the simulated address space (implemented by
// *cpu.CPU; declared here to avoid a dependency cycle).
type Allocator interface {
	Alloc(size int) (uint64, error)
}

// BindAll binds every still-unbound column of the table into the allocator's
// address space. Columns are laid out in insertion order, each in its own
// allocation; columns already bound (by an earlier query over the same table)
// keep their addresses.
func (t *Table) BindAll(a Allocator) error {
	for _, c := range t.cols {
		if c.Bound() {
			continue
		}
		size := c.SizeBytes()
		if size == 0 {
			size = 1 // keep zero-row tables addressable
		}
		base, err := a.Alloc(size)
		if err != nil {
			return fmt.Errorf("columnar: binding column %q: %w", c.Name(), err)
		}
		c.Bind(base)
	}
	return nil
}
