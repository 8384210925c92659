package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that runtime/pprof
// writes: enough of the wire format to total each sample's last value (CPU
// nanoseconds) under the function of its leaf frame. It keeps go.mod free of
// dependencies.

var errProto = errors.New("pprof: malformed profile")

// protoBuf decodes protobuf wire format from a byte slice.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, and either a varint value or a
// length-delimited payload. Fixed-width fields are skipped as empty payloads.
func (p *protoBuf) field() (num int, val uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return num, val, payload, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, val uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, val), nil
	}
	p := protoBuf{payload}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// leafSelfNs parses a CPU profile and returns the sampled nanoseconds by the
// name of the function executing when each sample was taken (the innermost
// inlined function of the leaf frame).
func leafSelfNs(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf uint64
		ns   int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> leaf function id
	funcName := map[uint64]uint64{}
	var strs []string
	p := protoBuf{raw}
	for len(p.b) > 0 {
		num, _, payload, err := p.field()
		if err != nil {
			return nil, err
		}
		m := protoBuf{payload}
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			for len(m.b) > 0 {
				n, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					locs, err = repeated(locs, v, pl)
				case 2:
					vals, err = repeated(vals, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			for len(m.b) > 0 {
				n, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine: // first Line is the innermost function
					seenLine = true
					l := protoBuf{pl}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fn = lv
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			for len(m.b) > 0 {
				n, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		out[name] += s.ns
	}
	return out, nil
}

// layerOf maps a Go function name to the benchmark layer that owns it.
// Layers are the module's packages; the Go runtime (GC and scheduler) is one
// more, and everything else — math, sort, the harness itself — is "other",
// so shares sum to 1.
func layerOf(fn string) string {
	// A function name is "import/path.Symbol"; the package path ends at the
	// first dot after the last slash.
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "progopt":
		return "progopt"
	case !strings.HasPrefix(pkg, "progopt/internal/"):
		return "other"
	}
	switch rest := strings.TrimPrefix(pkg, "progopt/internal/"); {
	case rest == "hw/cache":
		return "hw.cache"
	case rest == "hw/branch":
		return "hw.branch"
	case rest == "hw/cpu" || rest == "hw/pmu":
		return "hw.cpu"
	case rest == "tpch" || rest == "datagen":
		return "tpch"
	case strings.HasPrefix(rest, "costmodel"):
		return "costmodel"
	case rest == "exec" || rest == "core" || rest == "service" || rest == "storage" || rest == "columnar" || rest == "trace":
		return rest
	}
	return "other"
}

// profiledLayers are the layers that report a self_share.
var profiledLayers = []string{
	"hw.cache", "hw.branch", "hw.cpu", "exec", "runtime", "core", "costmodel",
	"progopt", "service", "storage", "columnar", "trace", "tpch", "other",
}

// layerShares buckets a CPU profile by layer and returns each layer's share
// of the sampled time, plus the sampled time itself.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	byFunc, err := leafSelfNs(gz)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	byLayer := map[string]int64{}
	for fn, ns := range byFunc {
		if fn == "main.refSample" {
			continue // the yardstick is not part of the workload
		}
		byLayer[layerOf(fn)] += ns
		total += ns
	}
	shares := map[string]float64{}
	for _, l := range profiledLayers {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares, total, nil
}
