package columnar

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// PCOL v2 stream layout (all integers little-endian):
//
//	magic "PCOL" | version u32 = 2 | nameLen u32 | name | numCols u32
//	blockRows u32 | numRows u64
//	per column:
//	  nameLen u32 | name | kind u32 | rows u64 | enc u8 | numBlocks u32
//	  per block: rows u32 | minBits u64 | maxBits u64 | flags u8
//	  payload:
//	    Plain: raw values
//	    Dict:  dictLen u32 | dict values u64 each | codeWidth u8 | codes
//	    FoR:   per block: ref i64 | widthBits u8 | packedLen u32 | packed
//
// Zone maps precede payloads so a reader can plan skip-scans without
// decoding; every length is validated against the declared geometry before
// allocation, which is what the FuzzLoadTable target hammers on.

const formatVersion2 = 2

// zoneFlagNullFree marks a block with no null rows.
const zoneFlagNullFree = 1

// WriteEncoded serializes an already-encoded table in the v2 format.
func WriteEncoded(w io.Writer, t *EncodedTable) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(formatVersion2)); err != nil {
		return err
	}
	if err := writeString(bw, t.name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.cols))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(t.blockRows)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(t.rows)); err != nil {
		return err
	}
	for _, c := range t.cols {
		if err := writeEncodedColumn(bw, c); err != nil {
			return fmt.Errorf("columnar: writing column %q: %w", c.name, err)
		}
	}
	return bw.Flush()
}

func writeEncodedColumn(w io.Writer, c *EncodedColumn) error {
	if err := writeString(w, c.name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(c.kind)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(c.rows)); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(c.enc)}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(c.blocks))); err != nil {
		return err
	}
	for _, b := range c.blocks {
		var flags byte
		if b.NullFree {
			flags |= zoneFlagNullFree
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(b.Rows)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, b.MinBits); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, b.MaxBits); err != nil {
			return err
		}
		if _, err := w.Write([]byte{flags}); err != nil {
			return err
		}
	}
	switch c.enc {
	case EncPlain:
		return writePlainPayload(w, c)
	case EncDict:
		return writeDictPayload(w, c)
	case EncFoR:
		for _, b := range c.blocks {
			if err := binary.Write(w, binary.LittleEndian, b.Ref); err != nil {
				return err
			}
			if _, err := w.Write([]byte{b.WidthBits}); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, uint32(len(b.Packed))); err != nil {
				return err
			}
			if _, err := w.Write(b.Packed); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown encoding %v", c.enc)
}

func writePlainPayload(w io.Writer, c *EncodedColumn) error {
	var buf [8]byte
	switch c.kind {
	case Int64:
		for _, v := range c.plainI64 {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			if _, err := w.Write(buf[:8]); err != nil {
				return err
			}
		}
	case Float64:
		for _, v := range c.plainF64 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := w.Write(buf[:8]); err != nil {
				return err
			}
		}
	case Int32, Date:
		for _, v := range c.plainI32 {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			if _, err := w.Write(buf[:4]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unsupported kind %v", c.kind)
	}
	return nil
}

func writeDictPayload(w io.Writer, c *EncodedColumn) error {
	dictLen := len(c.dictI) + len(c.dictF)
	if err := binary.Write(w, binary.LittleEndian, uint32(dictLen)); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range c.dictI {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		if _, err := w.Write(buf[:8]); err != nil {
			return err
		}
	}
	for _, v := range c.dictF {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:8]); err != nil {
			return err
		}
	}
	if _, err := w.Write([]byte{byte(c.codeWidth)}); err != nil {
		return err
	}
	for _, code := range c.codes {
		switch c.codeWidth {
		case 1:
			buf[0] = byte(code)
		case 2:
			binary.LittleEndian.PutUint16(buf[:2], uint16(code))
		case 4:
			binary.LittleEndian.PutUint32(buf[:4], code)
		default:
			return fmt.Errorf("bad code width %d", c.codeWidth)
		}
		if _, err := w.Write(buf[:c.codeWidth]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEncoded parses a v2 stream into its encoded form (zone maps and
// payloads intact) — the shape the storage tier binds block-at-a-time.
// Any version but 2 is an *UnsupportedVersionError.
func ReadEncoded(r io.Reader) (*EncodedTable, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	version, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if version != formatVersion2 {
		return nil, &UnsupportedVersionError{Version: version}
	}
	return readEncodedBody(br)
}

// readHeader consumes the magic and the format version.
func readHeader(r io.Reader) (uint32, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, fmt.Errorf("columnar: reading magic: %w", err)
	}
	if string(magic) != formatMagic {
		return 0, fmt.Errorf("columnar: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return 0, err
	}
	return version, nil
}

func readEncodedBody(r io.Reader) (*EncodedTable, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	var numCols, blockRows uint32
	var numRows uint64
	if err := binary.Read(r, binary.LittleEndian, &numCols); err != nil {
		return nil, err
	}
	if numCols > 4096 {
		return nil, fmt.Errorf("columnar: implausible column count %d", numCols)
	}
	if err := binary.Read(r, binary.LittleEndian, &blockRows); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &numRows); err != nil {
		return nil, err
	}
	if blockRows == 0 || blockRows > maxRows {
		return nil, fmt.Errorf("columnar: block rows %d out of range", blockRows)
	}
	if numRows > maxRows {
		return nil, fmt.Errorf("columnar: row count %d exceeds limit", numRows)
	}
	t := &EncodedTable{
		name:      name,
		rows:      int(numRows),
		blockRows: int(blockRows),
		byName:    make(map[string]*EncodedColumn),
	}
	for i := uint32(0); i < numCols; i++ {
		c, err := readEncodedColumn(r, t.rows, t.blockRows)
		if err != nil {
			return nil, fmt.Errorf("columnar: reading column %d: %w", i, err)
		}
		if _, dup := t.byName[c.name]; dup {
			return nil, fmt.Errorf("columnar: duplicate column %q", c.name)
		}
		t.cols = append(t.cols, c)
		t.byName[c.name] = c
	}
	return t, nil
}

func readEncodedColumn(r io.Reader, tableRows, blockRows int) (*EncodedColumn, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	var kind uint32
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	switch Kind(kind) {
	case Int64, Int32, Float64, Date:
	default:
		return nil, fmt.Errorf("unknown kind %d", kind)
	}
	var rows uint64
	if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
		return nil, err
	}
	if int(rows) != tableRows {
		return nil, fmt.Errorf("column rows %d disagree with table rows %d", rows, tableRows)
	}
	var encByte [1]byte
	if _, err := io.ReadFull(r, encByte[:]); err != nil {
		return nil, err
	}
	c := &EncodedColumn{name: name, kind: Kind(kind), rows: int(rows), enc: Encoding(encByte[0])}
	switch c.enc {
	case EncPlain, EncDict, EncFoR:
	default:
		return nil, fmt.Errorf("unknown encoding %d", encByte[0])
	}

	var numBlocks uint32
	if err := binary.Read(r, binary.LittleEndian, &numBlocks); err != nil {
		return nil, err
	}
	wantBlocks := 0
	if c.rows > 0 {
		wantBlocks = (c.rows + blockRows - 1) / blockRows
	}
	if int(numBlocks) != wantBlocks {
		return nil, fmt.Errorf("block count %d disagrees with geometry (%d rows / %d per block)", numBlocks, c.rows, blockRows)
	}
	c.blocks = make([]BlockMeta, 0, min(int(numBlocks), 4096))
	for i := 0; i < int(numBlocks); i++ {
		c.blocks = append(c.blocks, BlockMeta{})
		b := &c.blocks[i]
		var blockRowCount uint32
		if err := binary.Read(r, binary.LittleEndian, &blockRowCount); err != nil {
			return nil, err
		}
		want := blockRows
		if i == int(numBlocks)-1 {
			want = c.rows - (int(numBlocks)-1)*blockRows
		}
		if int(blockRowCount) != want {
			return nil, fmt.Errorf("block %d declares %d rows, geometry says %d", i, blockRowCount, want)
		}
		b.Rows = int(blockRowCount)
		if err := binary.Read(r, binary.LittleEndian, &b.MinBits); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &b.MaxBits); err != nil {
			return nil, err
		}
		var flags [1]byte
		if _, err := io.ReadFull(r, flags[:]); err != nil {
			return nil, err
		}
		b.NullFree = flags[0]&zoneFlagNullFree != 0
	}

	switch c.enc {
	case EncPlain:
		return c, readPlainPayload(r, c)
	case EncDict:
		return c, readDictPayload(r, c)
	case EncFoR:
		if c.kind == Float64 {
			return nil, fmt.Errorf("FoR encoding is integer-only, column is %v", c.kind)
		}
		for i := range c.blocks {
			b := &c.blocks[i]
			if err := binary.Read(r, binary.LittleEndian, &b.Ref); err != nil {
				return nil, err
			}
			var width [1]byte
			if _, err := io.ReadFull(r, width[:]); err != nil {
				return nil, err
			}
			if width[0] > 64 {
				return nil, fmt.Errorf("block %d delta width %d exceeds 64 bits", i, width[0])
			}
			b.WidthBits = width[0]
			var packedLen uint32
			if err := binary.Read(r, binary.LittleEndian, &packedLen); err != nil {
				return nil, err
			}
			want := (b.Rows*int(b.WidthBits) + 7) / 8
			if int(packedLen) != want {
				return nil, fmt.Errorf("block %d packed length %d, geometry says %d", i, packedLen, want)
			}
			if b.Packed, err = readBytes(r, int(packedLen)); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	return nil, fmt.Errorf("unknown encoding %v", c.enc)
}

func readPlainPayload(r io.Reader, c *EncodedColumn) error {
	var err error
	switch c.kind {
	case Int64:
		c.plainI64, err = readI64s(r, c.rows)
		return err
	case Float64:
		raw, err := readI64s(r, c.rows)
		if err != nil {
			return err
		}
		c.plainF64 = make([]float64, c.rows)
		for i, v := range raw {
			c.plainF64[i] = math.Float64frombits(uint64(v))
		}
		return nil
	case Int32, Date:
		c.plainI32, err = readI32s(r, c.rows)
		return err
	}
	return fmt.Errorf("unsupported kind %v", c.kind)
}

func readDictPayload(r io.Reader, c *EncodedColumn) error {
	var dictLen uint32
	if err := binary.Read(r, binary.LittleEndian, &dictLen); err != nil {
		return err
	}
	if dictLen > maxDictLen {
		return fmt.Errorf("dictionary of %d entries exceeds limit %d", dictLen, maxDictLen)
	}
	if c.rows > 0 && dictLen == 0 {
		return fmt.Errorf("empty dictionary for %d rows", c.rows)
	}
	raw, err := readI64s(r, int(dictLen))
	if err != nil {
		return err
	}
	if c.kind == Float64 {
		c.dictF = make([]float64, dictLen)
		for i, v := range raw {
			c.dictF[i] = math.Float64frombits(uint64(v))
		}
	} else {
		c.dictI = raw
	}
	var widthByte [1]byte
	if _, err := io.ReadFull(r, widthByte[:]); err != nil {
		return err
	}
	c.codeWidth = int(widthByte[0])
	switch c.codeWidth {
	case 1, 2, 4:
	default:
		return fmt.Errorf("bad dictionary code width %d", c.codeWidth)
	}
	packed, err := readBytes(r, c.rows*c.codeWidth)
	if err != nil {
		return err
	}
	c.codes = make([]uint32, c.rows)
	for i := range c.codes {
		var code uint32
		switch c.codeWidth {
		case 1:
			code = uint32(packed[i])
		case 2:
			code = uint32(binary.LittleEndian.Uint16(packed[i*2:]))
		case 4:
			code = binary.LittleEndian.Uint32(packed[i*4:])
		}
		if code >= dictLen {
			return fmt.Errorf("row %d dictionary code %d out of range %d", i, code, dictLen)
		}
		c.codes[i] = code
	}
	return nil
}
