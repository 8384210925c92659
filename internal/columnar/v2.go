package columnar

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
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
		encodeIntColumn(ec, c.I64(), nil, blockRows)
	case Int32, Date:
		encodeIntColumn(ec, nil, c.I32(), blockRows)
	default:
		return nil, fmt.Errorf("unsupported kind %v", c.Kind())
	}
	return ec, nil
}

// intAt reads row i of whichever integer slice is populated, widened.
func intAt(i64 []int64, i32 []int32, i int) int64 {
	if i64 != nil {
		return i64[i]
	}
	return int64(i32[i])
}

func encodeIntColumn(ec *EncodedColumn, i64 []int64, i32 []int32, blockRows int) {
	rows := ec.rows
	// Zone maps plus FoR sizing in one pass over the blocks.
	forBytes := 0
	blockSpans(rows, blockRows, func(_, lo, hi int) {
		min, max := intAt(i64, i32, lo), intAt(i64, i32, lo)
		for r := lo + 1; r < hi; r++ {
			if v := intAt(i64, i32, r); v < min {
				min = v
			} else if v > max {
				max = v
			}
		}
		width := bits.Len64(uint64(max) - uint64(min))
		forBytes += ((hi-lo)*width+7)/8 + 9
		ec.blocks = append(ec.blocks, BlockMeta{
			Rows: hi - lo, MinBits: uint64(min), MaxBits: uint64(max), NullFree: true,
		})
	})

	// Distinct scan for the dictionary candidate, bailing past the cap.
	distinct := make(map[int64]struct{})
	for r := 0; r < rows && len(distinct) <= maxDictLen; r++ {
		distinct[intAt(i64, i32, r)] = struct{}{}
	}
	dictBytes := math.MaxInt
	var dict []int64
	if len(distinct) <= maxDictLen {
		dict = make([]int64, 0, len(distinct))
		for v := range distinct {
			dict = append(dict, v)
		}
		sort.Slice(dict, func(a, b int) bool { return dict[a] < dict[b] })
		dictBytes = len(dict)*8 + rows*codeWidthFor(len(dict))
	}

	plainBytes := ec.PlainBytes()
	switch {
	case dictBytes < forBytes && dictBytes < plainBytes:
		ec.enc = EncDict
		ec.dictI = dict
		ec.codeWidth = codeWidthFor(len(dict))
		ec.codes = make([]uint32, rows)
		idx := make(map[int64]uint32, len(dict))
		for i, v := range dict {
			idx[v] = uint32(i)
		}
		for r := 0; r < rows; r++ {
			ec.codes[r] = idx[intAt(i64, i32, r)]
		}
	case forBytes < plainBytes:
		ec.enc = EncFoR
		deltas := make([]uint64, 0, blockRows)
		blockSpans(rows, blockRows, func(i, lo, hi int) {
			b := &ec.blocks[i]
			b.Ref = int64(b.MinBits)
			b.WidthBits = uint8(bits.Len64(b.MaxBits - b.MinBits))
			deltas = deltas[:0]
			for r := lo; r < hi; r++ {
				deltas = append(deltas, uint64(intAt(i64, i32, r))-uint64(b.Ref))
			}
			b.Packed = packBits(deltas, int(b.WidthBits))
		})
	default:
		ec.enc = EncPlain
		if i64 != nil {
			ec.plainI64 = i64
		} else {
			ec.plainI32 = i32
		}
	}
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
	// round-trips exactly; the dictionary sorts by value with ties broken by
	// bit pattern to stay deterministic.
	distinct := make(map[uint64]struct{})
	for r := 0; r < rows && len(distinct) <= maxDictLen; r++ {
		distinct[math.Float64bits(vals[r])] = struct{}{}
	}
	plainBytes := ec.PlainBytes()
	if len(distinct) <= maxDictLen {
		dict := make([]float64, 0, len(distinct))
		for b := range distinct {
			dict = append(dict, math.Float64frombits(b))
		}
		sort.Slice(dict, func(a, b int) bool {
			if dict[a] != dict[b] {
				return dict[a] < dict[b]
			}
			return math.Float64bits(dict[a]) < math.Float64bits(dict[b])
		})
		if dictBytes := len(dict)*8 + rows*codeWidthFor(len(dict)); dictBytes < plainBytes {
			ec.enc = EncDict
			ec.dictF = dict
			ec.codeWidth = codeWidthFor(len(dict))
			ec.codes = make([]uint32, rows)
			idx := make(map[uint64]uint32, len(dict))
			for i, v := range dict {
				idx[math.Float64bits(v)] = uint32(i)
			}
			for r := 0; r < rows; r++ {
				ec.codes[r] = idx[math.Float64bits(vals[r])]
			}
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
	switch c.enc {
	case EncPlain:
		return c.wrap(c.plainI64, c.plainI32, c.plainF64)
	case EncDict:
		if c.kind == Float64 {
			vals := make([]float64, c.rows)
			for r, code := range c.codes {
				if int(code) >= len(c.dictF) {
					return nil, fmt.Errorf("dict code %d out of range %d", code, len(c.dictF))
				}
				vals[r] = c.dictF[code]
			}
			return c.wrap(nil, nil, vals)
		}
		wide := make([]int64, c.rows)
		for r, code := range c.codes {
			if int(code) >= len(c.dictI) {
				return nil, fmt.Errorf("dict code %d out of range %d", code, len(c.dictI))
			}
			wide[r] = c.dictI[code]
		}
		return c.wrapInts(wide)
	case EncFoR:
		wide := make([]int64, 0, c.rows)
		for i := range c.blocks {
			b := &c.blocks[i]
			deltas, err := unpackBits(b.Packed, b.Rows, int(b.WidthBits))
			if err != nil {
				return nil, fmt.Errorf("block %d: %w", i, err)
			}
			for _, d := range deltas {
				wide = append(wide, int64(uint64(b.Ref)+d))
			}
		}
		if len(wide) != c.rows {
			return nil, fmt.Errorf("block rows sum to %d, want %d", len(wide), c.rows)
		}
		return c.wrapInts(wide)
	}
	return nil, fmt.Errorf("unknown encoding %v", c.enc)
}

// wrapInts narrows a widened integer slice back to the column's kind.
func (c *EncodedColumn) wrapInts(wide []int64) (*Column, error) {
	if c.kind == Int64 {
		return c.wrap(wide, nil, nil)
	}
	narrow := make([]int32, len(wide))
	for i, v := range wide {
		narrow[i] = int32(v)
	}
	return c.wrap(nil, narrow, nil)
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

// packBits packs each value's low width bits LSB-first into a byte stream.
// Values must fit width bits.
func packBits(vals []uint64, width int) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(vals)*width+7)/8)
	bitPos := 0
	for _, v := range vals {
		for w := 0; w < width; {
			idx, off := bitPos>>3, bitPos&7
			take := 8 - off
			if take > width-w {
				take = width - w
			}
			out[idx] |= byte((v >> uint(w)) << uint(off))
			w += take
			bitPos += take
		}
	}
	return out
}

// unpackBits is packBits' inverse: n width-bit values from src.
func unpackBits(src []byte, n, width int) ([]uint64, error) {
	if width < 0 || width > 64 {
		return nil, fmt.Errorf("bit width %d out of range", width)
	}
	need := (n*width + 7) / 8
	if len(src) < need {
		return nil, fmt.Errorf("packed payload %d bytes, need %d", len(src), need)
	}
	out := make([]uint64, n)
	if width == 0 {
		return out, nil
	}
	bitPos := 0
	for i := range out {
		var v uint64
		for w := 0; w < width; {
			idx, off := bitPos>>3, bitPos&7
			take := 8 - off
			if take > width-w {
				take = width - w
			}
			v |= (uint64(src[idx]>>uint(off)) & (1<<uint(take) - 1)) << uint(w)
			w += take
			bitPos += take
		}
		out[i] = v
	}
	return out, nil
}
