package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer.
type span struct {
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Parent    int    `json:"parent"` // index into the span list, -1 for a root
	Iteration int    `json:"iteration"`
}

// spanRec keeps host spans in memory until the run ends. A nil *spanRec is
// the untraced state: begin and end do nothing, so the measured run pays one
// pointer test per facade call.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (s *spanRec) begin(parent int, name string) int {
	if s == nil {
		return -1
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.spans = append(s.spans, span{Name: name, StartNs: now, EndNs: now, Parent: parent, Iteration: s.iter})
	id := len(s.spans) - 1
	s.mu.Unlock()
	return id
}

func (s *spanRec) end(id int) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.spans[id].EndNs = now
	s.mu.Unlock()
}

// setIteration stamps subsequently opened spans with the iteration number.
func (s *spanRec) setIteration(it int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.iter = it
	s.mu.Unlock()
}

// durationsMs returns the durations of every span with the given name from
// iteration minIter on, in milliseconds.
func (s *spanRec) durationsMs(name string, minIter int) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, sp := range s.spans {
		if sp.Name == name && sp.Iteration >= minIter {
			out = append(out, float64(sp.EndNs-sp.StartNs)/1e6)
		}
	}
	return out
}

// spanTotal is one row of the span summary.
type spanTotal struct {
	Name    string
	Count   int
	TotalNs int64
	// SelfNs is the total minus the part of each span its children cover
	// (children running concurrently are counted once).
	SelfNs int64
}

// totals aggregates spans by name, in first-appearance order.
func (s *spanRec) totals() []spanTotal {
	if s == nil {
		return nil
	}
	children := make(map[int][][2]int64)
	for _, sp := range s.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.StartNs, sp.EndNs})
		}
	}
	idx := map[string]int{}
	var out []spanTotal
	for i, sp := range s.spans {
		k, ok := idx[sp.Name]
		if !ok {
			k = len(out)
			idx[sp.Name] = k
			out = append(out, spanTotal{Name: sp.Name})
		}
		d := sp.EndNs - sp.StartNs
		out[k].Count++
		out[k].TotalNs += d
		out[k].SelfNs += d - covered(children[i])
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}
