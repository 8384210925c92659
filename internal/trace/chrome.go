package trace

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// WriteChrome serializes the recorder as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing load). One trace nanosecond equals one
// simulated cycle: timestamps are emitted as microseconds with three decimal
// places (ts = cycles/1000), which is exact for every cycle count below 2^53
// and keeps distinct cycles at distinct timestamps.
//
// The layout is fixed: a thread_name metadata event per track (pid 1, tid =
// track creation index), then each track's events in append order. Because
// append order per track is deterministic (see the package comment) and all
// numeric formatting is exact, identical simulations produce byte-identical
// files across runs, GOMAXPROCS settings, and hosts.
//
// The document is appended into one buffer the recorder keeps across exports
// and Reset, so a session's second export allocates nothing that grows with
// the event count. Like recording, exporting is not synchronized: one
// WriteChrome at a time, and none while tracks are being appended to.
func (r *Recorder) WriteChrome(w io.Writer) error {
	b := append(r.out[:0], "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"...)
	first := true
	// open starts the next event: separator, phase, pid and tid.
	open := func(ph string, tid int) {
		if !first {
			b = append(b, ",\n"...)
		}
		first = false
		b = append(b, "{\"ph\":\""...)
		b = append(b, ph...)
		b = append(b, "\",\"pid\":1,\"tid\":"...)
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	for tid, t := range r.tracks {
		open("M", tid)
		b = append(b, ",\"name\":\"thread_name\",\"args\":{\"name\":"...)
		b = appendJSONString(b, t.name)
		b = append(b, "}}"...)
	}
	for tid, t := range r.tracks {
		for i := range t.events {
			ev := &t.events[i]
			if ev.Instant {
				open("i", tid)
				b = append(b, ",\"ts\":"...)
				b = appendTs(b, ev.Start)
				b = append(b, ",\"s\":\"t\",\"name\":"...)
			} else {
				open("X", tid)
				b = append(b, ",\"ts\":"...)
				b = appendTs(b, ev.Start)
				b = append(b, ",\"dur\":"...)
				b = appendTs(b, ev.End-ev.Start)
				b = append(b, ",\"name\":"...)
			}
			b = appendJSONString(b, ev.Name)
			b = appendArgs(b, t.args[ev.argLo:ev.argHi])
			b = append(b, '}')
		}
		if t.dropped > 0 {
			open("i", tid)
			b = append(b, ",\"ts\":"...)
			b = appendTs(b, t.events[len(t.events)-1].End)
			b = append(b, ",\"s\":\"t\",\"name\":\"events_dropped\",\"args\":{\"count\":"...)
			b = strconv.AppendInt(b, int64(t.dropped), 10)
			b = append(b, "}}"...)
		}
	}
	b = append(b, "\n]}\n"...)
	r.out = b
	_, err := w.Write(b)
	return err
}

// appendTs renders a cycle count as microseconds at 1 cycle = 1 ns, with
// exactly three decimals: integer arithmetic only, so the rendering is exact.
func appendTs(b []byte, cycles uint64) []byte {
	b = strconv.AppendUint(b, cycles/1000, 10)
	frac := cycles % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

func appendArgs(b []byte, args []Arg) []byte {
	if len(args) == 0 {
		return b
	}
	b = append(b, ",\"args\":{"...)
	for i := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, args[i].Key)
		b = append(b, ':')
		b = appendVal(b, &args[i])
	}
	return append(b, '}')
}

func appendVal(b []byte, a *Arg) []byte {
	switch a.kind {
	case kindUint64:
		return strconv.AppendUint(b, a.num, 10)
	case kindInt, kindInt64:
		return strconv.AppendInt(b, int64(a.num), 10)
	case kindFloat64:
		return appendFloat(b, math.Float64frombits(a.num))
	case kindBool:
		return strconv.AppendBool(b, a.num != 0)
	case kindString:
		return appendJSONString(b, a.str)
	case kindInts:
		b = append(b, '[')
		for i, n := range a.ints {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		return append(b, ']')
	default:
		b = append(b, '[')
		for i, f := range a.floats {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, f)
		}
		return append(b, ']')
	}
}

// appendFloat renders a finite float in its shortest round-trip form
// (deterministic: pure-Go Ryū formatting). JSON has no NaN or infinities —
// an estimate's cost is +Inf until a start succeeds — so those are emitted as
// the strings "NaN", "+Inf" and "-Inf", keeping the file loadable.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		b = append(b, '"')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		return append(b, '"')
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendJSONString renders s as a JSON string literal with encoding/json's
// bytes. Printable ASCII other than the five characters encoding/json
// escapes (" \ and, for HTML safety, < > &) is copied between quotes; any
// other byte — controls, DEL, non-ASCII (U+2028/9 and invalid UTF-8 are
// rewritten) — sends the whole string through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			buf, err := json.Marshal(s)
			if err != nil { // cannot happen for a string
				return append(b, `"?"`...)
			}
			return append(b, buf...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
