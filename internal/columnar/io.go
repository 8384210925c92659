package columnar

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Shared pieces of the PCOL stream format (layout in io2.go): the header
// constants, the typed version error, and the length-checked string and
// payload readers. The format exists so generated data sets (cmd/tpchgen) can
// be produced once and reloaded by benchmarks and examples.

const (
	formatMagic = "PCOL"
	// maxStringLen bounds on-disk string lengths to keep corrupt files from
	// driving huge allocations.
	maxStringLen = 1 << 16
	// maxRows bounds per-column row counts on load (1B rows).
	maxRows = 1 << 30
)

// UnsupportedVersionError reports a well-formed PCOL header whose format
// version this build does not read. Version 1, the unencoded format without
// zone maps, was retired: its files are regenerated, not converted.
type UnsupportedVersionError struct{ Version uint32 }

func (e *UnsupportedVersionError) Error() string {
	if e.Version == 1 {
		return "columnar: unsupported format version 1, regenerate with tpchgen"
	}
	return fmt.Sprintf("columnar: unsupported format version %d", e.Version)
}

func writeString(w io.Writer, s string) error {
	if len(s) > maxStringLen {
		return fmt.Errorf("columnar: string of %d bytes exceeds format limit", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("columnar: string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readChunkBytes values are decoded per ReadFull call by the chunked payload
// readers, so memory growth tracks bytes actually present in the stream — a
// corrupt header declaring a billion rows over a ten-byte payload fails
// after one small read instead of allocating the full declared size first.
const readChunkBytes = 64 << 10

// readI64s reads n little-endian 8-byte values, growing the result as the
// stream delivers them.
func readI64s(r io.Reader, n int) ([]int64, error) {
	out := make([]int64, 0, min(n, readChunkBytes/8))
	buf := make([]byte, min(n*8, readChunkBytes))
	for len(out) < n {
		chunk := min(n-len(out), readChunkBytes/8)
		if _, err := io.ReadFull(r, buf[:chunk*8]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return out, nil
}

// readI32s reads n little-endian 4-byte values, growing as delivered.
func readI32s(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, 0, min(n, readChunkBytes/4))
	buf := make([]byte, min(n*4, readChunkBytes))
	for len(out) < n {
		chunk := min(n-len(out), readChunkBytes/4)
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i*4:])))
		}
	}
	return out, nil
}

// readBytes reads exactly n bytes, growing as delivered.
func readBytes(r io.Reader, n int) ([]byte, error) {
	out := make([]byte, 0, min(n, readChunkBytes))
	for len(out) < n {
		chunk := min(n-len(out), readChunkBytes)
		start := len(out)
		out = append(out, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
