package columnar

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// PCOL v2 is the encoded, block-structured revision of the table format:
// every column is cut into fixed-size blocks of blockRows rows, each block
// carries a zone map (min/max plus a null-free flag), and the payload is
// stored under one of three per-column encodings chosen by size:
//
//   - Plain: raw little-endian values.
//   - Dict: a sorted dictionary of distinct values plus per-row codes of
//     1/2/4 bytes — the low-cardinality case (l_discount has 11 distinct
//     values; one byte per row instead of eight).
//   - FoR: frame-of-reference — per block, the minimum value as the
//     reference plus bit-packed unsigned deltas at the block's exact bit
//     width. Delta arithmetic is wrapping uint64, so any int64 range
//     round-trips exactly (width tops out at 64).
//
// Encoding and decoding are exact inverses for every value (floats are
// compared and stored by bit pattern), which is what lets the storage tier
// price compressed block transfers while the engine's results stay
// bit-identical to an in-RAM run.

// Encoding identifies a v2 column payload encoding.
type Encoding uint8

const (
	// EncPlain stores raw little-endian values.
	EncPlain Encoding = iota
	// EncDict stores a sorted dictionary plus fixed-width per-row codes.
	EncDict
	// EncFoR stores per-block reference values plus bit-packed deltas.
	EncFoR
)

// String names the encoding for stats output and Explain lines.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncFoR:
		return "for"
	}
	return fmt.Sprintf("enc(%d)", uint8(e))
}

// maxDictLen bounds dictionary sizes: past 64Ki distinct values the codes
// would need 4 bytes and the dictionary itself stops paying for itself on
// the column shapes this engine stores.
const maxDictLen = 1 << 16

// BlockMeta is one block's zone map plus, for FoR columns, its packed
// payload.
type BlockMeta struct {
	// Rows is the number of rows in this block (BlockRows except possibly
	// for the final block).
	Rows int
	// MinBits and MaxBits hold the zone map bounds: the int64 bit pattern
	// for integer kinds, the float64 bit pattern for Float64.
	MinBits, MaxBits uint64
	// NullFree records that no row of the block is null. The engine has no
	// null representation today, so every written block sets it; the flag
	// exists so the format does not need a revision when nulls arrive.
	NullFree bool

	// Ref is the FoR reference value (the block minimum); unused otherwise.
	Ref int64
	// WidthBits is the FoR delta width in bits (0..64); unused otherwise.
	WidthBits uint8
	// Packed is the FoR bit-packed delta payload, LSB-first; nil otherwise.
	Packed []byte
}

// EncodedColumn is one v2 column: zone-mapped blocks over an encoded
// payload.
type EncodedColumn struct {
	name   string
	kind   Kind
	rows   int
	enc    Encoding
	blocks []BlockMeta

	// Dict state: exactly one of dictI/dictF is set, sorted ascending.
	dictI     []int64
	dictF     []float64
	codes     []uint32
	codeWidth int

	// Plain payloads (also the decode scratch).
	plainI64 []int64
	plainI32 []int32
	plainF64 []float64
}

// Name returns the column name.
func (c *EncodedColumn) Name() string { return c.name }

// Kind returns the value kind.
func (c *EncodedColumn) Kind() Kind { return c.kind }

// Rows returns the row count.
func (c *EncodedColumn) Rows() int { return c.rows }

// Encoding returns the payload encoding.
func (c *EncodedColumn) Encoding() Encoding { return c.enc }

// NumBlocks returns the block count.
func (c *EncodedColumn) NumBlocks() int { return len(c.blocks) }

// Block returns block i's metadata.
func (c *EncodedColumn) Block(i int) BlockMeta { return c.blocks[i] }

// ZoneInt returns block i's zone map as int64 bounds (integer kinds only).
func (c *EncodedColumn) ZoneInt(i int) (min, max int64) {
	return int64(c.blocks[i].MinBits), int64(c.blocks[i].MaxBits)
}

// ZoneFloat returns block i's zone map as float64 bounds (Float64 only).
func (c *EncodedColumn) ZoneFloat(i int) (min, max float64) {
	return math.Float64frombits(c.blocks[i].MinBits), math.Float64frombits(c.blocks[i].MaxBits)
}

// PlainBytes is the uncompressed payload size.
func (c *EncodedColumn) PlainBytes() int { return c.rows * c.kind.Width() }

// EncodedBytes is the encoded payload size: the sum over blocks of
// BlockEncodedBytes plus, for Dict, the dictionary itself.
func (c *EncodedColumn) EncodedBytes() int {
	total := 0
	for i := range c.blocks {
		total += c.BlockEncodedBytes(i)
	}
	if c.enc == EncDict {
		total += len(c.dictI)*8 + len(c.dictF)*8
	}
	return total
}

// BlockEncodedBytes is the transfer size of block i under the column's
// encoding — what the simulated storage tier charges to fault the block in.
func (c *EncodedColumn) BlockEncodedBytes(i int) int {
	b := c.blocks[i]
	switch c.enc {
	case EncDict:
		return b.Rows * c.codeWidth
	case EncFoR:
		return len(b.Packed) + 9 // ref + width prefix travel with the block
	default:
		return b.Rows * c.kind.Width()
	}
}

// PackedWidthBytes is the uniform per-row width of the column's encoded
// image: the stride a compressed scan addresses the column at. Dict columns
// scan their codes; FoR columns scan at the widest block's delta width
// rounded up to a power-of-two byte width; Plain columns scan the raw
// values.
func (c *EncodedColumn) PackedWidthBytes() int {
	switch c.enc {
	case EncDict:
		return c.codeWidth
	case EncFoR:
		w := 0
		for _, b := range c.blocks {
			if int(b.WidthBits) > w {
				w = int(b.WidthBits)
			}
		}
		switch {
		case w == 0:
			return 1
		case w <= 8:
			return 1
		case w <= 16:
			return 2
		case w <= 32:
			return 4
		default:
			return 8
		}
	default:
		return c.kind.Width()
	}
}

// EncodedTable is a v2 table: encoded, zone-mapped columns over a shared
// block geometry.
type EncodedTable struct {
	name      string
	rows      int
	blockRows int
	cols      []*EncodedColumn
	byName    map[string]*EncodedColumn
}

// Name returns the table name.
func (t *EncodedTable) Name() string { return t.name }

// NumRows returns the row count.
func (t *EncodedTable) NumRows() int { return t.rows }

// BlockRows returns the rows-per-block geometry.
func (t *EncodedTable) BlockRows() int { return t.blockRows }

// NumBlocks returns the per-column block count.
func (t *EncodedTable) NumBlocks() int {
	if t.rows == 0 {
		return 0
	}
	return (t.rows + t.blockRows - 1) / t.blockRows
}

// Columns returns the columns in insertion order.
func (t *EncodedTable) Columns() []*EncodedColumn { return t.cols }

// Column returns the named column, or nil.
func (t *EncodedTable) Column(name string) *EncodedColumn { return t.byName[name] }

// PlainBytes is the table's uncompressed payload footprint.
func (t *EncodedTable) PlainBytes() int {
	total := 0
	for _, c := range t.cols {
		total += c.PlainBytes()
	}
	return total
}

// EncodedBytes is the table's encoded payload footprint.
func (t *EncodedTable) EncodedBytes() int {
	total := 0
	for _, c := range t.cols {
		total += c.EncodedBytes()
	}
	return total
}

// EncodeTable cuts t into blockRows-row blocks and encodes every column
// under the smallest of Plain/Dict/FoR. The encoding is exact: Decode
// returns a table whose every value is bit-identical to t's.
func EncodeTable(t *Table, blockRows int) (*EncodedTable, error) {
	if blockRows <= 0 {
		return nil, fmt.Errorf("columnar: non-positive block rows %d", blockRows)
	}
	if blockRows > maxRows {
		return nil, fmt.Errorf("columnar: block rows %d exceed limit", blockRows)
	}
	out := &EncodedTable{
		name:      t.Name(),
		rows:      t.NumRows(),
		blockRows: blockRows,
		byName:    make(map[string]*EncodedColumn),
	}
	for _, c := range t.Columns() {
		ec, err := encodeColumn(c, blockRows)
		if err != nil {
			return nil, fmt.Errorf("columnar: encoding column %q: %w", c.Name(), err)
		}
		out.cols = append(out.cols, ec)
		out.byName[ec.name] = ec
	}
	return out, nil
}

// Decode reconstructs the plain table. Every value round-trips exactly.
func (t *EncodedTable) Decode() (*Table, error) {
	out := NewTable(t.name)
	for _, ec := range t.cols {
		c, err := ec.decode()
		if err != nil {
			return nil, fmt.Errorf("columnar: decoding column %q: %w", ec.name, err)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// blockSpans iterates [lo,hi) row ranges of the block geometry.
func blockSpans(rows, blockRows int, f func(i, lo, hi int)) {
	for i, lo := 0, 0; lo < rows; i, lo = i+1, lo+blockRows {
		hi := lo + blockRows
		if hi > rows {
			hi = rows
		}
		f(i, lo, hi)
	}
}

func encodeColumn(c *Column, blockRows int) (*EncodedColumn, error) {
	ec := &EncodedColumn{name: c.Name(), kind: c.Kind(), rows: c.Len()}
	switch c.Kind() {
	case Float64:
		encodeFloatColumn(ec, c.F64(), blockRows)
	case Int64:
		if encodeIntColumn(ec, c.I64(), blockRows) {
			ec.plainI64 = c.I64()
		}
	case Int32, Date:
		if encodeIntColumn(ec, c.I32(), blockRows) {
			ec.plainI32 = c.I32()
		}
	default:
		return nil, fmt.Errorf("unsupported kind %v", c.Kind())
	}
	return ec, nil
}

// encodeIntColumn fills ec's zone maps and its Dict or FoR payload; it
// reports whether the column stays Plain, whose payload the caller sets.
func encodeIntColumn[T int32 | int64](ec *EncodedColumn, vals []T, blockRows int) (plain bool) {
	rows := ec.rows
	// Zone maps plus FoR sizing in one pass over the blocks; the column's
	// value range falls out of the zone maps.
	forBytes := 0
	var lo, hi int64
	blockSpans(rows, blockRows, func(i, l, h int) {
		min, max := vals[l], vals[l]
		for _, v := range vals[l+1 : h] {
			if v < min {
				min = v
			} else if v > max {
				max = v
			}
		}
		if i == 0 || int64(min) < lo {
			lo = int64(min)
		}
		if i == 0 || int64(max) > hi {
			hi = int64(max)
		}
		width := bits.Len64(uint64(max) - uint64(min))
		forBytes += ((h-l)*width+7)/8 + 9
		ec.blocks = append(ec.blocks, BlockMeta{
			Rows: h - l, MinBits: uint64(min), MaxBits: uint64(max), NullFree: true,
		})
	})

	dict, codes := intDictionary(vals, lo, hi)
	dictBytes := math.MaxInt
	if dict != nil {
		dictBytes = len(dict)*8 + rows*codeWidthFor(len(dict))
	}
	plainBytes := ec.PlainBytes()
	switch {
	case dictBytes < forBytes && dictBytes < plainBytes:
		ec.enc = EncDict
		ec.dictI = dict
		ec.codeWidth = codeWidthFor(len(dict))
		ec.codes = codes()
	case forBytes < plainBytes:
		ec.enc = EncFoR
		deltas := make([]uint64, min(rows, blockRows))
		blockSpans(rows, blockRows, func(i, l, h int) {
			b := &ec.blocks[i]
			b.Ref = int64(b.MinBits)
			b.WidthBits = uint8(bits.Len64(b.MaxBits - b.MinBits))
			d := deltas[:h-l]
			for j, v := range vals[l:h] {
				d[j] = uint64(v) - uint64(b.Ref)
			}
			b.Packed = packBits(d, int(b.WidthBits))
		})
	default:
		ec.enc = EncPlain
		return true
	}
	return false
}

// intDictionary returns the sorted distinct values of an integer column
// whose values lie in [lo, hi], and a function computing every row's code; the
// dictionary is nil past maxDictLen distinct values. A range within the row
// count is indexed by value − lo: the presence array lists the dictionary in
// key order, then maps each value to its code with one index. Wider domains
// go through hashDictionary.
func intDictionary[T int32 | int64](vals []T, lo, hi int64) ([]int64, func() []uint32) {
	rows := len(vals)
	if rows == 0 {
		return nil, nil
	}
	if span := uint64(hi) - uint64(lo); span < uint64(rows) {
		idx := make([]uint32, span+1)
		for _, v := range vals {
			idx[uint64(v)-uint64(lo)] = 1
		}
		n := 0
		for _, seen := range idx {
			n += int(seen)
		}
		if n > maxDictLen {
			return nil, nil
		}
		dict := make([]int64, 0, n)
		for i, seen := range idx {
			if seen != 0 {
				idx[i] = uint32(len(dict))
				dict = append(dict, lo+int64(i))
			}
		}
		return dict, func() []uint32 {
			codes := make([]uint32, rows)
			for r, v := range vals {
				codes[r] = idx[uint64(v)-uint64(lo)]
			}
			return codes
		}
	}
	keys, codes := hashDictionary(vals, func(v T) uint64 { return uint64(v) }, cmp.Compare[T])
	if keys == nil {
		return nil, nil
	}
	dict := make([]int64, len(keys))
	for i, k := range keys {
		dict[i] = int64(k)
	}
	return dict, codes
}

// hashDictionary is the dictionary pass over a domain too wide to index.
// Each row's key is hashed once, into an open-addressing table that maps it
// to the first-seen id of its value and doubles as distinct keys arrive; past
// maxDictLen distinct keys the pass gives up (nil). The distinct values come
// back sorted by compare, and codes renumbers every row's id to its value's
// position in that order.
func hashDictionary[V any](vals []V, key func(V) uint64, compare func(a, b V) int) ([]V, func() []uint32) {
	var (
		seen  []V      // distinct values by id
		keys  []uint64 // and their keys
		slots = make([]uint32, 256)
		shift = uint(64 - 8) // slots hold id+1, 0 when empty
	)
	// probe returns the slot holding k, or the empty slot where k belongs.
	probe := func(k uint64) int {
		s := int(k * 0x9e3779b97f4a7c15 >> shift) // Fibonacci hashing
		for slots[s] != 0 && keys[slots[s]-1] != k {
			s = (s + 1) & (len(slots) - 1)
		}
		return s
	}
	rowIDs := make([]uint32, len(vals))
	for r, v := range vals {
		k := key(v)
		s := probe(k)
		id := slots[s]
		if id == 0 {
			if len(seen) == maxDictLen {
				return nil, nil
			}
			seen, keys = append(seen, v), append(keys, k)
			id = uint32(len(seen))
			slots[s] = id
			if 2*len(seen) > len(slots) {
				slots, shift = make([]uint32, 2*len(slots)), shift-1
				for i, k := range keys {
					slots[probe(k)] = uint32(i + 1)
				}
			}
		}
		rowIDs[r] = id - 1
	}
	order := make([]uint32, len(seen))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return compare(seen[a], seen[b]) })
	dict := make([]V, len(seen))
	rank := make([]uint32, len(seen))
	for pos, id := range order {
		dict[pos] = seen[id]
		rank[id] = uint32(pos)
	}
	return dict, func() []uint32 {
		for r, id := range rowIDs {
			rowIDs[r] = rank[id]
		}
		return rowIDs
	}
}

// compareFloatBits orders floats by value with ties (signed zeros) broken by
// bit pattern, the dictionary order of Float64 columns.
func compareFloatBits(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
}

func encodeFloatColumn(ec *EncodedColumn, vals []float64, blockRows int) {
	rows := ec.rows
	blockSpans(rows, blockRows, func(_, lo, hi int) {
		min, max := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v < min {
				min = v
			} else if v > max {
				max = v
			}
		}
		ec.blocks = append(ec.blocks, BlockMeta{
			Rows: hi - lo, MinBits: math.Float64bits(min), MaxBits: math.Float64bits(max), NullFree: true,
		})
	})

	// Floats have no FoR form; the dictionary is the only compressed option.
	// Distinctness is by bit pattern so every value (signed zeros included)
	// round-trips exactly.
	dict, codes := hashDictionary(vals, math.Float64bits, compareFloatBits)
	if dict != nil {
		if dictBytes := len(dict)*8 + rows*codeWidthFor(len(dict)); dictBytes < ec.PlainBytes() {
			ec.enc = EncDict
			ec.dictF = dict
			ec.codeWidth = codeWidthFor(len(dict))
			ec.codes = codes()
			return
		}
	}
	ec.enc = EncPlain
	ec.plainF64 = vals
}

// codeWidthFor is the narrowest {1,2,4}-byte code width indexing n entries.
func codeWidthFor(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

func (c *EncodedColumn) decode() (*Column, error) {
	var (
		i64 []int64
		i32 []int32
		f64 []float64
		err error
	)
	switch c.kind {
	case Int64:
		i64, err = decodeInts(c, c.plainI64)
	case Int32, Date:
		i32, err = decodeInts(c, c.plainI32)
	case Float64:
		switch c.enc {
		case EncPlain:
			f64 = c.plainF64
		case EncDict:
			f64, err = lookupCodes(c.dictF, c.codes, c.rows)
		default:
			err = fmt.Errorf("encoding %v is integer-only, column is %v", c.enc, c.kind)
		}
	}
	if err != nil {
		return nil, err
	}
	return c.wrap(i64, i32, f64)
}

// decodeInts decodes an integer column straight into its kind. A dictionary
// entry or FoR value outside T's range — possible only in a corrupt Int32 or
// Date column — is an error, never a truncated value.
func decodeInts[T int32 | int64](c *EncodedColumn, plain []T) ([]T, error) {
	switch c.enc {
	case EncPlain:
		return plain, nil
	case EncDict:
		dict := make([]T, len(c.dictI))
		for i, v := range c.dictI {
			if int64(T(v)) != v {
				return nil, fmt.Errorf("dictionary entry %d = %d outside the %v range", i, v, c.kind)
			}
			dict[i] = T(v)
		}
		return lookupCodes(dict, c.codes, c.rows)
	case EncFoR:
		total, widest := 0, 0
		for _, b := range c.blocks {
			total += b.Rows
			widest = max(widest, b.Rows)
		}
		if total != c.rows {
			return nil, fmt.Errorf("block rows sum to %d, want %d", total, c.rows)
		}
		vals := make([]T, c.rows)
		deltas := make([]uint64, widest)
		r := 0
		for i := range c.blocks {
			b := &c.blocks[i]
			d := deltas[:b.Rows]
			if err := unpackBits(d, b.Packed, int(b.WidthBits)); err != nil {
				return nil, fmt.Errorf("block %d: %w", i, err)
			}
			for _, delta := range d {
				v := int64(uint64(b.Ref) + delta)
				if int64(T(v)) != v {
					return nil, fmt.Errorf("block %d: value %d outside the %v range", i, v, c.kind)
				}
				vals[r] = T(v)
				r++
			}
		}
		return vals, nil
	}
	return nil, fmt.Errorf("unknown encoding %v", c.enc)
}

// lookupCodes expands dictionary codes into rows values.
func lookupCodes[T any](dict []T, codes []uint32, rows int) ([]T, error) {
	vals := make([]T, rows)
	for r, code := range codes {
		if int(code) >= len(dict) {
			return nil, fmt.Errorf("dict code %d out of range %d", code, len(dict))
		}
		vals[r] = dict[code]
	}
	return vals, nil
}

func (c *EncodedColumn) wrap(i64 []int64, i32 []int32, f64 []float64) (*Column, error) {
	switch c.kind {
	case Int64:
		return NewInt64(c.name, i64), nil
	case Int32:
		return NewInt32(c.name, i32), nil
	case Date:
		return NewDate(c.name, i32), nil
	case Float64:
		return NewFloat64(c.name, f64), nil
	}
	return nil, fmt.Errorf("unsupported kind %v", c.kind)
}

// packBits packs each value's low width bits LSB-first into a byte stream,
// a 64-bit word at a time. Values must fit width bits.
func packBits(vals []uint64, width int) []byte {
	if width == 0 {
		return nil
	}
	n := (len(vals)*width + 7) / 8
	out := make([]byte, (n+7)&^7) // whole words; the tail is cut off below
	var acc uint64                // pending bits, LSB first
	pending, pos := 0, 0
	for _, v := range vals {
		acc |= v << pending
		pending += width
		if pending >= 64 {
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += 8
			pending -= 64
			acc = v >> (width - pending) // Go shifts of 64 give 0
		}
	}
	if pending > 0 {
		binary.LittleEndian.PutUint64(out[pos:], acc)
	}
	return out[:n]
}

// unpackBits is packBits' inverse: it fills dst with len(dst) width-bit
// values from src, reading a 64-bit word at a time.
func unpackBits(dst []uint64, src []byte, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("bit width %d out of range", width)
	}
	if need := (len(dst)*width + 7) / 8; len(src) < need {
		return fmt.Errorf("packed payload %d bytes, need %d", len(src), need)
	}
	if width == 0 {
		clear(dst)
		return nil
	}
	mask := uint64(1)<<width - 1 // all ones at width 64
	var acc uint64               // buffered bits, LSB first, none above avail
	avail, pos := 0, 0
	for i := range dst {
		if avail >= width {
			dst[i] = acc & mask
			acc >>= width
			avail -= width
			continue
		}
		var w uint64
		if pos+8 <= len(src) {
			w = binary.LittleEndian.Uint64(src[pos:])
		} else {
			var tail [8]byte
			copy(tail[:], src[pos:])
			w = binary.LittleEndian.Uint64(tail[:])
		}
		pos += 8
		dst[i] = (acc | w<<avail) & mask
		acc = w >> (width - avail)
		avail += 64 - width
	}
	return nil
}
