// Package service is the multi-query workload layer on top of the
// single-query engine: a deterministic discrete-event scheduler that runs
// many queries against one shared pool of simulated cores, plus
// the plan-fingerprint and PMU-feedback caches that amortize compilation and
// progressive-optimization cost across recurring submissions.
//
// Everything runs on the simulated clock. Submissions carry simulated
// arrival times; the scheduler runs the oldest admitted query to completion
// on every core of the pool, one step per round, and advances per-core
// absolute clocks, so a fixed workload trace produces bit-identical
// per-query results, PMU counters, latencies, and total makespan on every
// host run, for every GOMAXPROCS setting — there is no host-time anywhere in
// the scheduling loop.
package service

import (
	"encoding/hex"
	"hash/fnv"
	"sort"
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

// Compute hashes the canonical plan identity. terms are the per-step
// encodings produced by the plan layer (filters, joins, aggregates); they
// are sorted here, making the fingerprint independent of construction
// order. generation is the data-set generation counter.
func Compute(table string, generation uint64, terms []string) Fingerprint {
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	h := fnv.New128a()
	writeTerm(h, "t|"+table)
	var gen [8]byte
	for i := 0; i < 8; i++ {
		gen[i] = byte(generation >> (8 * i))
	}
	h.Write(gen[:])
	for _, t := range sorted {
		writeTerm(h, t)
	}
	var f Fingerprint
	copy(f[:], h.Sum(nil))
	return f
}

// writeTerm writes one length-prefixed term, so term boundaries cannot alias
// ("ab"+"c" never hashes like "a"+"bc").
func writeTerm(h interface{ Write([]byte) (int, error) }, term string) {
	n := len(term)
	h.Write([]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)})
	h.Write([]byte(term))
}
