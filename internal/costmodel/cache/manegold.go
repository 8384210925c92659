package cache

import (
	"fmt"
	"math"
)

// This file implements the generic cost model of Manegold, Boncz, Kersten
// ("Generic database cost models for hierarchical memory systems", VLDB
// 2002), which the paper's §3.1 builds on: database operators are described
// as compositions of basic data-access patterns, and each pattern's cache
// misses are predicted per level. The paper combines these patterns to model
// joins and sorts beyond the selection-only Pirk model.

// Pattern is one data-access pattern whose expected cache misses (for a
// given cache geometry) can be predicted.
type Pattern interface {
	// Misses predicts the expected line misses of the pattern.
	Misses(g Geometry) float64
	// FootprintBytes is the amount of data the pattern touches, used to
	// attribute cache capacity when patterns run concurrently.
	FootprintBytes() float64
	// String describes the pattern.
	String() string
}

// STrav is a single sequential traversal: n tuples of the given width read
// (or written) front to back.
type STrav struct {
	N     int
	Width int
}

// Misses implements Pattern: one miss per covering line.
func (s STrav) Misses(g Geometry) float64 { return g.Lines(s.N, s.Width) }

// FootprintBytes implements Pattern.
func (s STrav) FootprintBytes() float64 { return float64(s.N) * float64(s.Width) }

// String implements Pattern.
func (s STrav) String() string { return fmt.Sprintf("s_trav(%d x %dB)", s.N, s.Width) }

// RTrav is a random traversal: R accesses spread uniformly over a region of
// n tuples, with no correlation between consecutive accesses.
type RTrav struct {
	N      int
	Width  int
	Probes int
}

// Misses implements Pattern via the paper's Eq. (1) (Yao below capacity,
// cached-fraction above).
func (r RTrav) Misses(g Geometry) float64 { return g.RandomMisses(r.N, r.Width, r.Probes) }

// FootprintBytes implements Pattern.
func (r RTrav) FootprintBytes() float64 { return float64(r.N) * float64(r.Width) }

// String implements Pattern.
func (r RTrav) String() string {
	return fmt.Sprintf("r_trav(%d probes over %d x %dB)", r.Probes, r.N, r.Width)
}

// RRAcc is repetitive random access to a small region (e.g. a hash table's
// hot buckets): after the region is resident, accesses hit.
type RRAcc struct {
	RegionBytes int
	Probes      int
}

// Misses implements Pattern: cold misses to load the region if it fits,
// otherwise every probe misses with the uncached fraction.
func (r RRAcc) Misses(g Geometry) float64 {
	lines := math.Ceil(float64(r.RegionBytes) / float64(g.LineSize))
	if int(lines) <= g.CapacityLines {
		if float64(r.Probes) < lines {
			return float64(r.Probes)
		}
		return lines
	}
	frac := 1 - float64(g.CapacityLines)/lines
	return lines + float64(r.Probes)*frac
}

// FootprintBytes implements Pattern.
func (r RRAcc) FootprintBytes() float64 { return float64(r.RegionBytes) }

// String implements Pattern.
func (r RRAcc) String() string {
	return fmt.Sprintf("rr_acc(%d probes over %dB)", r.Probes, r.RegionBytes)
}

// Seq composes patterns executed one after the other (Manegold's ⊕): the
// cache is reused between phases only as far as footprints fit, which the
// basic model ignores — misses simply add.
type Seq []Pattern

// Misses implements Pattern.
func (q Seq) Misses(g Geometry) float64 {
	sum := 0.0
	for _, p := range q {
		sum += p.Misses(g)
	}
	return sum
}

// FootprintBytes implements Pattern (the maximum of the phases).
func (q Seq) FootprintBytes() float64 {
	m := 0.0
	for _, p := range q {
		if f := p.FootprintBytes(); f > m {
			m = f
		}
	}
	return m
}

// String implements Pattern.
func (q Seq) String() string { return fmt.Sprintf("seq(%d patterns)", len(q)) }

// Concurrent composes patterns executed in an interleaved fashion
// (Manegold's ⊙): each pattern effectively sees the cache capacity divided
// in proportion to its footprint, so patterns that would fit alone may
// thrash together.
type Concurrent []Pattern

// Misses implements Pattern.
func (cc Concurrent) Misses(g Geometry) float64 {
	total := 0.0
	for _, p := range cc {
		total += p.FootprintBytes()
	}
	sum := 0.0
	for _, p := range cc {
		sub := g
		if total > 0 {
			share := p.FootprintBytes() / total
			sub.CapacityLines = int(float64(g.CapacityLines) * share)
		}
		sum += p.Misses(sub)
	}
	return sum
}

// FootprintBytes implements Pattern.
func (cc Concurrent) FootprintBytes() float64 {
	sum := 0.0
	for _, p := range cc {
		sum += p.FootprintBytes()
	}
	return sum
}

// String implements Pattern.
func (cc Concurrent) String() string { return fmt.Sprintf("concurrent(%d patterns)", len(cc)) }
