// Package pmu defines the performance-monitoring-unit event vocabulary of the
// simulated CPU and the sample arithmetic the progressive optimizer uses.
//
// The paper's approach (§2.2) hinges on two properties of real PMUs that this
// package preserves: reading counters is (virtually) free and non-invasive,
// and only a small number of programmable counters can be gathered
// simultaneously — the paper's four chosen events (branches not taken, taken
// mispredictions, not-taken mispredictions, L3 accesses) exactly fill the
// four programmable counter slots of an Intel core, which Group enforces.
package pmu

import "fmt"

// Event identifies one countable hardware event.
type Event int

// Events of the simulated PMU. BrNotTaken, BrMPTaken, BrMPNotTaken and
// L3Access are the four the paper samples.
const (
	// BrCond counts retired conditional branches.
	BrCond Event = iota
	// BrTaken counts retired conditional branches that were taken.
	BrTaken
	// BrNotTaken counts retired conditional branches that were not taken.
	BrNotTaken
	// BrMPTaken counts taken branches that were mispredicted (predicted not
	// taken, actually taken).
	BrMPTaken
	// BrMPNotTaken counts not-taken branches that were mispredicted.
	BrMPNotTaken
	// BrMP counts all mispredicted conditional branches.
	BrMP
	// L1Access counts demand loads presented to L1.
	L1Access
	// L1Miss counts demand loads that missed L1.
	L1Miss
	// L2Access counts demand requests presented to L2.
	L2Access
	// L2Miss counts demand requests that missed L2.
	L2Miss
	// L3Access counts requests presented to L3: demand requests from L2
	// misses plus prefetcher requests (the paper's counter, §2.2.2).
	L3Access
	// L3DemandAccess counts only the demand part of L3Access.
	L3DemandAccess
	// L3PrefetchAccess counts only the prefetcher part of L3Access.
	L3PrefetchAccess
	// L3Miss counts demand requests that missed L3 and went to memory.
	L3Miss
	// L3Hit counts demand requests that hit in L3.
	L3Hit
	// MemAccess counts cache lines transferred from memory (demand+prefetch).
	MemAccess
	// Instructions counts retired instructions (fixed counter 0).
	Instructions
	// Cycles counts elapsed core cycles (fixed counter 1).
	Cycles

	// NumEvents is the size of the event space.
	NumEvents
)

var eventNames = [NumEvents]string{
	"br_cond", "br_taken", "br_not_taken", "br_mp_taken", "br_mp_not_taken",
	"br_mp", "l1_access", "l1_miss", "l2_access", "l2_miss", "l3_access",
	"l3_demand_access", "l3_prefetch_access", "l3_miss", "l3_hit",
	"mem_access", "instructions", "cycles",
}

// String returns the perf-style event name.
func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Fixed reports whether the event occupies a fixed counter (always available,
// does not consume a programmable slot).
func (e Event) Fixed() bool { return e == Instructions || e == Cycles }

// ProgrammableSlots is the number of simultaneously available programmable
// counters, matching Intel general-purpose counters with hyper-threading on.
const ProgrammableSlots = 4

// Group is a validated set of events that can be collected in one run without
// multiplexing.
type Group struct {
	events []Event
}

// NewGroup validates that the given events fit the PMU simultaneously.
func NewGroup(events ...Event) (Group, error) {
	prog := 0
	seen := map[Event]bool{}
	for _, e := range events {
		if e < 0 || e >= NumEvents {
			return Group{}, fmt.Errorf("pmu: unknown event %d", int(e))
		}
		if seen[e] {
			return Group{}, fmt.Errorf("pmu: duplicate event %v", e)
		}
		seen[e] = true
		if !e.Fixed() {
			prog++
		}
	}
	if prog > ProgrammableSlots {
		return Group{}, fmt.Errorf("pmu: %d programmable events exceed %d slots", prog, ProgrammableSlots)
	}
	g := Group{events: append([]Event(nil), events...)}
	return g, nil
}

// PaperGroup returns the four-event group the paper's optimizer samples
// (§4.2) plus the two fixed counters.
func PaperGroup() Group {
	g, err := NewGroup(BrNotTaken, BrMPTaken, BrMPNotTaken, L3Access, Instructions, Cycles)
	if err != nil {
		panic(err) // statically valid
	}
	return g
}

// Sample is a snapshot of all counter values at one instant.
type Sample [NumEvents]uint64

// Get returns the value of one event.
func (s Sample) Get(e Event) uint64 { return s[e] }

// Sub returns s - prev per event (the delta over an execution interval, e.g.
// one vector).
func (s Sample) Sub(prev Sample) Sample {
	var d Sample
	for i := range s {
		d[i] = s[i] - prev[i]
	}
	return d
}

// Add returns s + other per event.
func (s Sample) Add(other Sample) Sample {
	var d Sample
	for i := range s {
		d[i] = s[i] + other[i]
	}
	return d
}

// Project returns a copy of s with every event outside the group zeroed,
// modelling that only the configured counters were actually collected.
func (s Sample) Project(g Group) Sample {
	var d Sample
	for _, e := range g.events {
		d[e] = s[e]
	}
	return d
}
