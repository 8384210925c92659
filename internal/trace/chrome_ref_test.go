package trace

import (
	"fmt"
	"io"
	"strconv"
)

// The recorder and exporter as they were while Arg boxed its value in an
// interface and every event retained its variadic list: the bodies of Span,
// Instant, add, Reset, WriteChrome, appendArgs and appendVal are kept
// verbatim (types renamed ref*) as the byte oracle of the typed, arena-backed
// recorder. appendTs, appendFloat and appendJSONString are shared with the
// shipped exporter; they did not change.

type refArg struct {
	Key string
	Val any // uint64, int, int64, float64, bool, string, []int, []float64
}

type refEvent struct {
	Name    string
	Start   uint64
	End     uint64
	Instant bool
	Args    []refArg
}

type refTrack struct {
	name    string
	events  []refEvent
	limit   int
	dropped int
}

func (t *refTrack) Span(name string, start, end uint64, args ...refArg) {
	if t == nil {
		return
	}
	t.add(refEvent{Name: name, Start: start, End: end, Args: args})
}

func (t *refTrack) Instant(name string, at uint64, args ...refArg) {
	if t == nil {
		return
	}
	t.add(refEvent{Name: name, Start: at, End: at, Instant: true, Args: args})
}

func (t *refTrack) add(ev refEvent) {
	if t.limit > 0 && len(t.events) >= t.limit {
		// Full tracks drop deterministically: the first limit events are
		// kept, the drop count is exported so truncation is visible.
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

type refRecorder struct {
	tracks []*refTrack
	limit  int
	out    []byte
}

func (r *refRecorder) NewTrack(name string) *refTrack {
	t := &refTrack{name: name, limit: r.limit}
	r.tracks = append(r.tracks, t)
	return t
}

func (r *refRecorder) Reset() {
	for _, t := range r.tracks {
		t.events = t.events[:0]
		t.dropped = 0
	}
}

func (r *refRecorder) WriteChrome(w io.Writer) error {
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
			b = refAppendArgs(b, ev.Args)
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

func refAppendArgs(b []byte, args []refArg) []byte {
	if len(args) == 0 {
		return b
	}
	b = append(b, ",\"args\":{"...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = refAppendVal(b, a.Val)
	}
	return append(b, '}')
}

func refAppendVal(b []byte, v any) []byte {
	switch x := v.(type) {
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return appendFloat(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case string:
		return appendJSONString(b, x)
	case []int:
		b = append(b, '[')
		for i, n := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		return append(b, ']')
	case []float64:
		b = append(b, '[')
		for i, f := range x {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, f)
		}
		return append(b, ']')
	default:
		return appendJSONString(b, fmt.Sprint(x))
	}
}
