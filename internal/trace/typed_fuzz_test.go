package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// scriptReader hands a fuzz input out a few bytes at a time; once the input
// is exhausted it yields zeros and done reports true.
type scriptReader struct {
	data []byte
}

func (s *scriptReader) done() bool { return len(s.data) == 0 }

func (s *scriptReader) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *scriptReader) u64() uint64 {
	var w [8]byte
	n := copy(w[:], s.data)
	s.data = s.data[n:]
	return binary.LittleEndian.Uint64(w[:])
}

var (
	fuzzKeys   = []string{"rows", "est_sels", `quo"te`, "a<b>&c", "tab\tkey", "café", "", "line sep"}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1.25, 1e21, 1e-9, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
)

func (s *scriptReader) str() string {
	if b := s.byte(); b%4 != 0 {
		return fuzzKeys[int(b)%len(fuzzKeys)]
	}
	n := int(s.byte()) % 12
	n = min(n, len(s.data))
	v := string(s.data[:n]) // arbitrary bytes: controls, invalid UTF-8
	s.data = s.data[n:]
	return v
}

func (s *scriptReader) float() float64 {
	if b := s.byte(); b%2 == 0 {
		return fuzzFloats[int(b/2)%len(fuzzFloats)]
	}
	return math.Float64frombits(s.u64())
}

// arg draws one annotation and returns it in both representations.
func (s *scriptReader) arg() (Arg, refArg) {
	key := s.str()
	switch s.byte() % 8 {
	case 0:
		v := s.u64()
		return Uint64(key, v), refArg{key, v}
	case 1:
		v := int(s.u64())
		return Int(key, v), refArg{key, v}
	case 2:
		v := int64(s.u64())
		return Int64(key, v), refArg{key, v}
	case 3:
		v := s.float()
		return Float64(key, v), refArg{key, v}
	case 4:
		v := s.byte()%2 == 1
		return Bool(key, v), refArg{key, v}
	case 5:
		v := s.str()
		return String(key, v), refArg{key, v}
	case 6:
		v := make([]int, s.byte()%4)
		for i := range v {
			v[i] = int(int8(s.byte()))
		}
		return Ints(key, v), refArg{key, v}
	default:
		v := make([]float64, s.byte()%4)
		for i := range v {
			v[i] = s.float()
		}
		return Float64s(key, v), refArg{key, v}
	}
}

// FuzzTypedArgsMatchAnyExporter drives the typed, arena-backed recorder and
// the interface-boxing recorder it replaced (chrome_ref_test.go) with one
// fuzzer-written script — spans and instants carrying random lists of all
// eight value kinds (NaN, the infinities and negative zero, strings that need
// escaping or are not UTF-8) on two tracks, Reset followed by reuse, and a
// per-track limit small enough that appends get dropped — and
// requires equal export bytes at every checkpoint and at the end, equal event
// and drop counts, and that Args/Value read back what was recorded.
func FuzzTypedArgsMatchAnyExporter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 5, 1, 9, 2, 6, 3, 1, 2, 3, 4, 0, 5})
	f.Add([]byte{0, 2, 1, 4, 1, 3, 3, 6, 1, 3, 5, 4, 2, 4, 0, 4, 1, 5, 2, 2, 4, 4, 3, 1, 1, 7, 2, 0, 1, 4})
	f.Add(bytes.Repeat([]byte{1, 0, 3, 2, 7, 3, 10, 12, 14}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &scriptReader{data: data}
		limit := 1 + int(s.byte())%6
		rec, ref := New(), &refRecorder{}
		rec.SetMaxEventsPerTrack(limit)
		ref.limit = limit
		tracks := []*Track{rec.NewTrack("core 0"), rec.NewTrack(`opt "<1>"`)}
		refs := []*refTrack{ref.NewTrack("core 0"), ref.NewTrack(`opt "<1>"`)}
		check := func() {
			t.Helper()
			var got, want bytes.Buffer
			if err := rec.WriteChrome(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref.WriteChrome(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("typed export\n%s\nboxing export\n%s", got.Bytes(), want.Bytes())
			}
			for k, tr := range tracks {
				if len(tr.Events()) != len(refs[k].events) || tr.Dropped() != refs[k].dropped {
					t.Fatalf("track %d: %d events, %d dropped; reference %d, %d",
						k, len(tr.Events()), tr.Dropped(), len(refs[k].events), refs[k].dropped)
				}
				for i := range tr.Events() {
					args, want := tr.Args(i), refs[k].events[i].Args
					if len(args) != len(want) {
						t.Fatalf("track %d event %d: %d args, reference %d", k, i, len(args), len(want))
					}
					for j, a := range args {
						if a.Key != want[j].Key || !bytes.Equal(refAppendVal(nil, a.Value()), refAppendVal(nil, want[j].Val)) {
							t.Fatalf("track %d event %d arg %d: %q=%v, reference %q=%v",
								k, i, j, a.Key, a.Value(), want[j].Key, want[j].Val)
						}
					}
				}
			}
		}
		for !s.done() {
			switch op := s.byte() % 6; op {
			case 0, 1, 2, 3: // record
				k := int(s.byte()) % len(tracks)
				var args []Arg
				var rargs []refArg
				for n := s.byte() % 5; n > 0; n-- {
					a, ra := s.arg()
					args, rargs = append(args, a), append(rargs, ra)
				}
				name, start := s.str(), s.u64()>>(s.byte()%64)
				if op%2 == 0 {
					end := start + uint64(s.byte())
					tracks[k].Span(name, start, end, args...)
					refs[k].Span(name, start, end, rargs...)
				} else {
					tracks[k].Instant(name, start, args...)
					refs[k].Instant(name, start, rargs...)
				}
			case 4: // reset, then keep recording into the same buffers
				rec.Reset()
				ref.Reset()
			case 5:
				check()
			}
		}
		check()
	})
}
