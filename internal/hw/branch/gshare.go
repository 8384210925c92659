package branch

import "fmt"

// Gshare is a global-history two-level predictor: a register of the last h
// branch directions is XOR-folded with the branch-site id to index a table of
// two-bit saturating counters. Unlike the per-site saturating predictor, two
// branch sites (or two history patterns of one site) can alias onto the same
// counter, and correlated outcome patterns are learned through the history.
//
// The reproduction uses it for the Nehalem hardware profile: the paper's
// Figure 6 shows Nehalem as the one microarchitecture whose measured
// misprediction curve deviates from the saturating/Markov model, which is the
// signature of a history-based predictor on a selection loop.
type Gshare struct {
	historyBits int
	history     uint32
	table       []uint8 // two-bit counters, 0..3; >=2 predicts taken
	mask        uint32
	initVal     uint8

	// Pads the struct to a multiple of 128 bytes: see the false-sharing layout
	// rule in DESIGN.md (pinned by TestLayoutNoFalseSharing).
	_ [80]byte
}

// NewGshare returns a gshare predictor with 2^tableBits two-bit counters and
// the given global-history length in bits (1..16, historyBits <= tableBits).
func NewGshare(tableBits, historyBits int) (*Gshare, error) {
	if tableBits < 2 || tableBits > 24 {
		return nil, fmt.Errorf("branch: gshare table bits %d out of range [2,24]", tableBits)
	}
	if historyBits < 1 || historyBits > 16 || historyBits > tableBits {
		return nil, fmt.Errorf("branch: gshare history bits %d invalid for table bits %d", historyBits, tableBits)
	}
	g := &Gshare{
		historyBits: historyBits,
		mask:        uint32(1)<<tableBits - 1,
		initVal:     2, // weakly taken
	}
	g.table = make([]uint8, g.mask+1)
	g.Reset()
	return g, nil
}

// MustGshare is NewGshare that panics on invalid configuration.
func MustGshare(tableBits, historyBits int) *Gshare {
	g, err := NewGshare(tableBits, historyBits)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Gshare) index(site int) uint32 {
	// Spread the site id so neighbouring sites don't collide trivially.
	h := uint32(site) * 2654435761
	return (h ^ g.history) & g.mask
}

// Observe implements Predictor.
func (g *Gshare) Observe(site int, taken bool) Outcome {
	idx := g.index(site)
	ctr := g.table[idx]
	out := Outcome{PredictedTaken: ctr >= 2, Taken: taken}
	if taken {
		if ctr < 3 {
			ctr++
		}
	} else if ctr > 0 {
		ctr--
	}
	g.table[idx] = ctr
	hmask := uint32(1)<<g.historyBits - 1
	g.history = (g.history << 1) & hmask
	if taken {
		g.history |= 1
	}
	return out
}

// ObserveN observes n consecutive branches at the given site, all with the
// same direction, and returns how many of them were mispredicted. Effects are
// exactly those of n Observe calls. A same-direction stream drives gshare to
// a fixed point: after historyBits steps the global history register is
// constant (all ones for taken, zero for not taken), pinning the table index,
// and the indexed counter then saturates in at most three more steps — after
// which every further observation predicts correctly and changes no state, so
// the loop exits early and the batch costs O(historyBits), not O(n).
func (g *Gshare) ObserveN(site int, taken bool, n int) int {
	var steady uint32
	var steadyCtr uint8
	if taken {
		steady = uint32(1)<<g.historyBits - 1
		steadyCtr = 3
	}
	mp := 0
	for i := 0; i < n; i++ {
		if g.Observe(site, taken).Mispredicted() {
			mp++
		}
		if g.history == steady && g.table[g.index(site)] == steadyCtr {
			break
		}
	}
	return mp
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = g.initVal
	}
	g.history = 0
}

// Name implements Predictor.
func (g *Gshare) Name() string {
	return fmt.Sprintf("gshare-%dx%d", len(g.table), g.historyBits)
}
