package columnar

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// The map-based PCOL v2 encoder and the bit-at-a-time packer that
// EncodeTable, packBits and unpackBits replaced, kept verbatim (renamed) as
// the oracles the reference tests and FuzzEncodeTable compare against: the
// dictionary is collected in a Go map and sorted, each row's code is a
// second map lookup, and the packer moves at most one byte's worth of bits
// per step.

func refEncodeTable(t *Table, blockRows int) (*EncodedTable, error) {
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
		ec, err := refEncodeColumn(c, blockRows)
		if err != nil {
			return nil, fmt.Errorf("columnar: encoding column %q: %w", c.Name(), err)
		}
		out.cols = append(out.cols, ec)
		out.byName[ec.name] = ec
	}
	return out, nil
}

func refEncodeColumn(c *Column, blockRows int) (*EncodedColumn, error) {
	ec := &EncodedColumn{name: c.Name(), kind: c.Kind(), rows: c.Len()}
	switch c.Kind() {
	case Float64:
		refEncodeFloatColumn(ec, c.F64(), blockRows)
	case Int64:
		refEncodeIntColumn(ec, c.I64(), nil, blockRows)
	case Int32, Date:
		refEncodeIntColumn(ec, nil, c.I32(), blockRows)
	default:
		return nil, fmt.Errorf("unsupported kind %v", c.Kind())
	}
	return ec, nil
}

// refIntAt reads row i of whichever integer slice is populated, widened.
func refIntAt(i64 []int64, i32 []int32, i int) int64 {
	if i64 != nil {
		return i64[i]
	}
	return int64(i32[i])
}

func refEncodeIntColumn(ec *EncodedColumn, i64 []int64, i32 []int32, blockRows int) {
	rows := ec.rows
	// Zone maps plus FoR sizing in one pass over the blocks.
	forBytes := 0
	blockSpans(rows, blockRows, func(_, lo, hi int) {
		min, max := refIntAt(i64, i32, lo), refIntAt(i64, i32, lo)
		for r := lo + 1; r < hi; r++ {
			if v := refIntAt(i64, i32, r); v < min {
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
		distinct[refIntAt(i64, i32, r)] = struct{}{}
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
			ec.codes[r] = idx[refIntAt(i64, i32, r)]
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
				deltas = append(deltas, uint64(refIntAt(i64, i32, r))-uint64(b.Ref))
			}
			b.Packed = refPackBits(deltas, int(b.WidthBits))
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

func refEncodeFloatColumn(ec *EncodedColumn, vals []float64, blockRows int) {
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

// refPackBits packs each value's low width bits LSB-first into a byte stream.
// Values must fit width bits.
func refPackBits(vals []uint64, width int) []byte {
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

// refUnpackBits is refPackBits' inverse: n width-bit values from src.
func refUnpackBits(src []byte, n, width int) ([]uint64, error) {
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
