package columnar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// failWriter fails after n bytes, exercising mid-stream write errors.
type failWriter struct {
	n       int
	written int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errors.New("disk full")
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriteTableFailurePaths(t *testing.T) {
	// Values no encoding shrinks, so the stream is as long as the plain
	// payload and every budget below cuts it short.
	rng := rand.New(rand.NewSource(3))
	a, b, c := make([]int64, 1000), make([]float64, 1000), make([]int32, 1000)
	for i := range a {
		a[i], b[i], c[i] = int64(rng.Uint64()), rng.NormFloat64(), int32(rng.Uint32())
	}
	tb := NewTable("t")
	tb.MustAddColumn(NewInt64("a", a))
	tb.MustAddColumn(NewFloat64("b", b))
	tb.MustAddColumn(NewInt32("c", c))
	et, err := EncodeTable(tb, 128)
	if err != nil {
		t.Fatal(err)
	}
	// The stream goes out in one buffered flush: any budget below its length
	// fails it.
	for _, lim := range []int{0, 2, 10, 30, 600, 9000} {
		if err := WriteEncoded(&failWriter{n: lim}, et); err == nil {
			t.Errorf("write with %d-byte budget succeeded", lim)
		}
	}
	// A generous budget succeeds.
	if err := WriteEncoded(&failWriter{n: 1 << 20}, et); err != nil {
		t.Errorf("write with ample budget failed: %v", err)
	}
}

func TestWriteTableRejectsHugeName(t *testing.T) {
	et, err := EncodeTable(NewTable(strings.Repeat("x", 1<<17)), 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEncoded(&buf, et); err == nil {
		t.Error("oversized table name accepted")
	}
}

// TestReadTableCorruptions flips the table stream at a header field and
// checks ReadEncoded rejects it.
func TestReadTableCorruptions(t *testing.T) {
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
	good := buf.Bytes()

	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), good...)
		f(b)
		if _, err := ReadEncoded(bytes.NewReader(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	mutate("bad version", func(b []byte) {
		binary.LittleEndian.PutUint32(b[4:], 99)
	})
	mutate("huge name length", func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:], 1<<30)
	})
	mutate("huge column count", func(b []byte) {
		// name "t" is 1 byte; numCols lives at offset 4+4+4+1.
		binary.LittleEndian.PutUint32(b[13:], 1<<20)
	})
	// Unknown column kind: kind field follows numCols(4) + blockRows(4) +
	// numRows(8) + colNameLen(4) + colName("a" = 1 byte).
	mutate("unknown kind", func(b []byte) {
		binary.LittleEndian.PutUint32(b[34:], 77)
	})
	// The column's row count follows the kind and must match the table's.
	mutate("huge rows", func(b []byte) {
		binary.LittleEndian.PutUint64(b[38:], 1<<40)
	})
}

func TestReadTableTruncatedAtEveryBoundary(t *testing.T) {
	tb := NewTable("tbl")
	tb.MustAddColumn(NewDate("d", []int32{100, 200}))
	tb.MustAddColumn(NewFloat64("f", []float64{1.5, 2.5}))
	et, err := EncodeTable(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEncoded(&buf, et); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := ReadEncoded(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
	if et, err = ReadEncoded(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
	if _, err := et.Decode(); err != nil {
		t.Fatalf("full stream does not decode: %v", err)
	}
}

func TestMustAddColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddColumn on duplicate did not panic")
		}
	}()
	tb := NewTable("t")
	tb.MustAddColumn(NewInt64("a", nil))
	tb.MustAddColumn(NewInt64("a", nil))
}

type failAlloc struct{}

func (failAlloc) Alloc(int) (uint64, error) { return 0, errors.New("address space exhausted") }

func TestBindAllPropagatesAllocError(t *testing.T) {
	tb := NewTable("t")
	tb.MustAddColumn(NewInt64("a", make([]int64, 10)))
	if err := tb.BindAll(failAlloc{}); err == nil {
		t.Error("allocator failure swallowed")
	}
	// Zero-row tables still bind (1-byte allocation).
	empty := NewTable("e")
	empty.MustAddColumn(NewInt64("a", nil))
	ok := &fakeAlloc{next: 4096}
	if err := empty.BindAll(ok); err != nil {
		t.Errorf("empty table bind failed: %v", err)
	}
}
