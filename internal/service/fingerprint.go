// Package service is the multi-query workload layer on top of the
// single-query engine: a deterministic discrete-event scheduler that runs
// many queries against one shared pool of simulated cores, plus
// the plan-fingerprint and PMU-feedback caches that amortize compilation and
// progressive-optimization cost across recurring submissions.
//
// Everything runs on the simulated clock. Submissions carry simulated
// arrival times; the scheduler runs one admitted query at a time to
// completion on every core of the pool, one step per round, the one of
// shortest expected span first (the feedback cache holds each fingerprint's
// last span), and advances per-core absolute clocks, so a fixed workload
// trace produces bit-identical per-query results, PMU counters, latencies,
// and total makespan on every host run, for every GOMAXPROCS setting — there
// is no host-time anywhere in the scheduling loop.
package service

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"slices"
)

// Fingerprint canonically identifies a compiled plan over a concrete data
// set: the driving table, the multiset of operator terms (order-independent
// — the optimizer permutes operators anyway, so two plans that chain the
// same steps differently are the same query), the aggregate/grouping spec,
// and the data-set generation counter (so a regenerated data set invalidates
// every plan compiled against its predecessor). It keys both the plan cache
// and the feedback cache.
type Fingerprint [16]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Zero reports whether the fingerprint is unset.
func (f Fingerprint) Zero() bool { return f == Fingerprint{} }

// Compute hashes the canonical plan identity with 128-bit FNV-1a: the
// driving table, the data-set generation counter and terms, the per-step
// encodings produced by the plan layer (filters, joins, aggregates). It
// sorts terms in place, making the fingerprint independent of construction
// order, and allocates nothing.
func Compute(table string, generation uint64, terms []string) Fingerprint {
	slices.Sort(terms)
	h := begin(table, generation)
	for _, t := range terms {
		writeTerm(&h, t)
	}
	return h.sum()
}

// ComputeSpans is Compute over terms written back to back in one buffer:
// term i is buf[spans[i][0]:spans[i][1]]. It sorts spans in place.
func ComputeSpans(table string, generation uint64, buf []byte, spans [][2]int) Fingerprint {
	slices.SortFunc(spans, func(a, b [2]int) int { return bytes.Compare(buf[a[0]:a[1]], buf[b[0]:b[1]]) })
	h := begin(table, generation)
	for _, sp := range spans {
		writeTerm(&h, buf[sp[0]:sp[1]])
	}
	return h.sum()
}

// fnv128a is the state of a 128-bit FNV-1a hash (hash/fnv's New128a), high
// word first.
type fnv128a [2]uint64

// The FNV-1a 128-bit offset basis and prime (2^88 + 0x13b).
const (
	fnvOffsetHigh = 0x6c62272e07bb0142
	fnvOffsetLow  = 0x62b821756295c58d
	fnvPrimeLow   = 0x13b
	fnvPrimeShift = 24 // the prime's high word is 1 << 24
)

// begin starts a fingerprint with the table term and the generation, eight
// bytes little-endian.
func begin(table string, generation uint64) fnv128a {
	h := fnv128a{fnvOffsetHigh, fnvOffsetLow}
	h.writeLen(len("t|") + len(table))
	write(&h, "t|")
	write(&h, table)
	for i := 0; i < 8; i++ {
		h.writeByte(byte(generation >> (8 * i)))
	}
	return h
}

// writeTerm writes one length-prefixed term, so term boundaries cannot alias
// ("ab"+"c" never hashes like "a"+"bc").
func writeTerm[T string | []byte](h *fnv128a, term T) {
	h.writeLen(len(term))
	write(h, term)
}

func (h *fnv128a) writeByte(c byte) {
	h[1] ^= uint64(c)
	hi, lo := bits.Mul64(fnvPrimeLow, h[1])
	h[0] = hi + h[1]<<fnvPrimeShift + fnvPrimeLow*h[0]
	h[1] = lo
}

// writeLen writes n as four little-endian bytes.
func (h *fnv128a) writeLen(n int) {
	for i := 0; i < 4; i++ {
		h.writeByte(byte(n >> (8 * i)))
	}
}

func write[T string | []byte](h *fnv128a, b T) {
	for i := 0; i < len(b); i++ {
		h.writeByte(b[i])
	}
}

// sum is the fingerprint, the hash's big-endian bytes.
func (h *fnv128a) sum() Fingerprint {
	var f Fingerprint
	for i := 0; i < 8; i++ {
		f[i], f[8+i] = byte(h[0]>>(56-8*i)), byte(h[1]>>(56-8*i))
	}
	return f
}
