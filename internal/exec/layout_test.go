package exec

import (
	"reflect"
	"testing"
	"unsafe"

	"progopt/internal/hw/branch"
	"progopt/internal/hw/cache"
	"progopt/internal/hw/cpu"
	"progopt/internal/trace"
)

// TestLayoutNoFalseSharing pins the false-sharing layout rule (DESIGN.md):
// every struct that holds one simulated core's mutable state is a multiple
// of 128 bytes, so the allocator — whose size classes from 128 bytes up are
// all multiples of 128, carved from page-aligned spans — never puts two
// cores' state on one cache-line pair. A field added to one of these structs
// fails here until its padding is adjusted.
func TestLayoutNoFalseSharing(t *testing.T) {
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"cache.Level", unsafe.Sizeof(cache.Level{})},
		{"cache.Hierarchy", unsafe.Sizeof(cache.Hierarchy{})},
		{"cache.StreamPrefetcher", unsafe.Sizeof(cache.StreamPrefetcher{})},
		{"branch.Saturating", unsafe.Sizeof(branch.Saturating{})},
		{"branch.Gshare", unsafe.Sizeof(branch.Gshare{})},
		{"cpu.CPU", unsafe.Sizeof(cpu.CPU{})},
		{"exec.Engine", unsafe.Sizeof(Engine{})},
		{"exec.progressCell", unsafe.Sizeof(progressCell{})},
		{"trace.Track", unsafe.Sizeof(trace.Track{})},
		{"cache.lower", hierField(t, "lo").Type.Size()},
		{"cache.stage", hierField(t, "sg").Type.Elem().Size()},
	} {
		if c.size%128 != 0 {
			t.Errorf("%s is %d bytes, not a multiple of 128: adjust its padding", c.name, c.size)
		}
	}

	// A staged hierarchy's halves: the helper thread writes the levels below
	// L1 (lo), which start a sector of their own, and the ring's tail; the
	// caller writes the rest and the ring's head, in another sector.
	if lo := hierField(t, "lo"); lo.Offset%128 != 0 {
		t.Errorf("cache.Hierarchy.lo at offset %d does not start a 128-byte sector", lo.Offset)
	}
	sg := hierField(t, "sg").Type.Elem()
	head, _ := sg.FieldByName("head")
	tail, _ := sg.FieldByName("tail")
	if head.Offset/128 == tail.Offset/128 {
		t.Errorf("stage cursors head (offset %d) and tail (offset %d) share a 128-byte sector", head.Offset, tail.Offset)
	}

	// The scheduler's progress cells: one 128-byte sector each.
	var s lookahead
	s.reset(make([]uint64, 8), 0, 1, 1)
	seen := map[uintptr]int{}
	for i := range s.cells {
		addr := uintptr(unsafe.Pointer(&s.cells[i].clock))
		if prev, dup := seen[addr/128]; dup {
			t.Errorf("progress cells %d and %d share the 128-byte sector at %#x", prev, i, addr/128*128)
		}
		seen[addr/128] = i
	}
	if base := uintptr(unsafe.Pointer(&s.cells[0])); base%128 != 0 {
		t.Errorf("progress cells start at %#x, not on a sector boundary", base)
	}
}

// hierField returns a field of cache.Hierarchy: the halves of the hierarchy
// are unexported, so the layout is read through reflection.
func hierField(t *testing.T, name string) reflect.StructField {
	t.Helper()
	f, ok := reflect.TypeOf(cache.Hierarchy{}).FieldByName(name)
	if !ok {
		t.Fatalf("cache.Hierarchy has no field %q", name)
	}
	return f
}
