package storage

import (
	"testing"

	"progopt/internal/columnar"
	"progopt/internal/exec"
	"progopt/internal/hw/cpu"
	"progopt/internal/tpch"
)

// testTable builds a small encoded lineitem plus its bound decoded image.
func testTable(t *testing.T, rows, blockRows int) (*columnar.EncodedTable, *columnar.Table, *cpu.CPU) {
	t.Helper()
	d, err := tpch.Generate(tpch.Config{Lineitems: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := columnar.EncodeTable(d.Lineitem, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.MustNew(cpu.ScaledXeon())
	if err := tab.BindAll(c); err != nil {
		t.Fatal(err)
	}
	return enc, tab, c
}

func TestRangeEmpty(t *testing.T) {
	cases := []struct {
		op       exec.CmpOp
		min, max int64
		bound    int64
		want     bool
	}{
		{exec.LE, 10, 20, 9, true},
		{exec.LE, 10, 20, 10, false},
		{exec.LT, 10, 20, 10, true},
		{exec.LT, 10, 20, 11, false},
		{exec.GE, 10, 20, 21, true},
		{exec.GE, 10, 20, 20, false},
		{exec.GT, 10, 20, 20, true},
		{exec.GT, 10, 20, 19, false},
		{exec.EQ, 10, 20, 9, true},
		{exec.EQ, 10, 20, 21, true},
		{exec.EQ, 10, 20, 10, false},
		{exec.EQ, 10, 20, 20, false},
		{exec.EQ, 10, 20, 15, false},
	}
	for _, tc := range cases {
		if got := rangeEmpty(tc.op, tc.min, tc.max, tc.bound); got != tc.want {
			t.Errorf("rangeEmpty(%v, [%d,%d], %d) = %v, want %v", tc.op, tc.min, tc.max, tc.bound, got, tc.want)
		}
	}
	if !rangeEmpty(exec.LT, 0.05, 0.07, 0.05) {
		t.Error("float LT at the min bound should prune")
	}
	if rangeEmpty(exec.CmpOp(99), 10, 20, int64(0)) {
		t.Error("unknown op must never prune")
	}
}

// TestSkipVectorsGeometry exercises the block-to-vector translation at
// aligned, straddling, and ragged-tail geometries.
func TestSkipVectorsGeometry(t *testing.T) {
	// 10 blocks of 100 rows; blocks 2,3,6,7,8 pruned; 999 rows total (ragged
	// last block).
	pruned := []bool{false, false, true, true, false, false, true, true, true, false}
	// With 200-row vectors: rows [200,400) cover blocks 2,3 (both pruned, so
	// skip); rows [600,800) cover blocks 6,7 (skip); rows [800,1000) clip to
	// [800,999) covering blocks 8,9 — block 9 unpruned, so keep.
	skip := skipVectors(pruned, 100, 999, 200)
	want := []bool{false, true, false, true, false}
	if len(skip) != len(want) {
		t.Fatalf("got %d vectors, want %d", len(skip), len(want))
	}
	for i := range want {
		if skip[i] != want[i] {
			t.Errorf("vector %d skip=%v, want %v (skip=%v)", i, skip[i], want[i], skip)
		}
	}
	// Vectors smaller than blocks: each 100-row block covers two 50-row
	// vectors, both inheriting its verdict.
	skip = skipVectors(pruned, 100, 999, 50)
	if len(skip) != 20 {
		t.Fatalf("got %d vectors, want 20", len(skip))
	}
	for v, s := range skip {
		if s != pruned[v/2] {
			t.Errorf("50-row vector %d skip=%v, block pruned=%v", v, s, pruned[v/2])
		}
	}
}

func TestCompileValidation(t *testing.T) {
	enc, tab, _ := testTable(t, 500, 128)
	if _, err := Compile(nil, tab, nil, 128, Config{}); err == nil {
		t.Error("nil encoded table accepted")
	}
	if _, err := Compile(enc, nil, nil, 128, Config{}); err == nil {
		t.Error("nil decoded image accepted")
	}
	if _, err := Compile(enc, tab, nil, 0, Config{}); err == nil {
		t.Error("zero vector size accepted")
	}
	other, err := tpch.Generate(tpch.Config{Lineitems: 600, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := columnar.EncodeTable(other.Lineitem, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(enc2, tab, nil, 128, Config{}); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

// TestPruneBlocksForeignPredicate: a predicate over a column object that is
// not the decoded image's (a join filter on another table) must never prune.
func TestPruneBlocksForeignPredicate(t *testing.T) {
	enc, tab, _ := testTable(t, 1000, 128)
	d, err := tpch.Generate(tpch.Config{Lineitems: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	foreign := &exec.Predicate{Col: d.Lineitem.Column("l_shipdate"), Op: exec.LE, I: -1}
	q := &exec.Query{Table: tab, Ops: []exec.Op{foreign}}
	pruned := pruneBlocks(enc, tab, q)
	for b, p := range pruned {
		if p {
			t.Fatalf("foreign predicate pruned block %d", b)
		}
	}
	// The same bound through the decoded image's own column prunes everything.
	own := &exec.Predicate{Col: tab.Column("l_shipdate"), Op: exec.LE, I: -1}
	q = &exec.Query{Table: tab, Ops: []exec.Op{own}}
	for b, p := range pruneBlocks(enc, tab, q) {
		if !p {
			t.Fatalf("impossible bound left block %d unpruned", b)
		}
	}
}

// TestNewSetBinding: newSet requires a bound decoded image and builds one
// logical block per (column, block) with the packed image aliased on.
func TestNewSetBinding(t *testing.T) {
	enc, tab, c := testTable(t, 1000, 256)
	p, err := Compile(enc, tab, nil, 256, Config{LatencyCycles: 10, BytesPerCycle: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.newSet()
	if err != nil {
		t.Fatal(err)
	}
	// Touch one decoded address per column: each first touch fetches that
	// column's block once.
	var stalls uint64
	for _, ec := range enc.Columns() {
		dc := tab.Column(ec.Name())
		stalls += s.Touch(dc.Base())
	}
	cnt := s.Counters()
	if cnt.BlockFetches != uint64(len(enc.Columns())) {
		t.Errorf("%d fetches after touching %d columns", cnt.BlockFetches, len(enc.Columns()))
	}
	if stalls != cnt.StallCycles || stalls == 0 {
		t.Errorf("stall accounting: returned %d, counters %d", stalls, cnt.StallCycles)
	}

	// A packed image aliases its column's blocks: touching the packed address
	// of an already-resident block is a hit, not a fetch.
	pw := enc.Columns()[0].PackedWidthBytes()
	base, err := c.Alloc(enc.Columns()[0].Rows() * pw)
	if err != nil {
		t.Fatal(err)
	}
	p.Packed = map[string]PackedImage{enc.Columns()[0].Name(): {Base: base, Width: pw}}
	s2, err := p.newSet()
	if err != nil {
		t.Fatal(err)
	}
	s2.Touch(tab.Column(enc.Columns()[0].Name()).Base())
	before := s2.Counters()
	if st := s2.Touch(base); st != 0 {
		t.Errorf("aliased packed touch stalled %d cycles", st)
	}
	after := s2.Counters()
	if after.BlockFetches != before.BlockFetches || after.BlockHits != before.BlockHits+1 {
		t.Errorf("aliased packed touch: fetches %d->%d, hits %d->%d",
			before.BlockFetches, after.BlockFetches, before.BlockHits, after.BlockHits)
	}

	// An unbound image is rejected.
	enc3, _, _ := testTable(t, 500, 128)
	unbound, err := enc3.Decode()
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Compile(enc3, unbound, nil, 128, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.newSet(); err == nil {
		t.Error("unbound decoded image accepted")
	}
}
