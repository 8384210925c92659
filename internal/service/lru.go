package service

// LRU is a small least-recently-used cache keyed by plan fingerprint. It is
// deliberately simple — cache sizes are tens of entries, and the linear
// recency scan keeps it allocation-free and deterministic. Not safe for
// concurrent use; callers hold the server lock.
type LRU struct {
	cap       int
	values    map[Fingerprint]any
	recency   []Fingerprint // least recently used first
	evictions int
}

// NewLRU builds a cache holding at most cap entries (cap <= 0 means 1).
func NewLRU(cap int) *LRU {
	if cap <= 0 {
		cap = 1
	}
	return &LRU{cap: cap, values: make(map[Fingerprint]any, cap)}
}

// Get returns the cached value and marks it most recently used.
func (l *LRU) Get(k Fingerprint) (any, bool) {
	v, ok := l.values[k]
	if ok {
		l.touch(k)
	}
	return v, ok
}

// Put inserts or refreshes an entry, evicting the least recently used entry
// beyond capacity.
func (l *LRU) Put(k Fingerprint, v any) {
	if _, ok := l.values[k]; ok {
		l.values[k] = v
		l.touch(k)
		return
	}
	if len(l.values) >= l.cap {
		victim := l.recency[0]
		l.recency = l.recency[1:]
		delete(l.values, victim)
		l.evictions++
	}
	l.values[k] = v
	l.recency = append(l.recency, k)
}

// touch moves k to the most-recently-used position.
func (l *LRU) touch(k Fingerprint) {
	for i, r := range l.recency {
		if r == k {
			copy(l.recency[i:], l.recency[i+1:])
			l.recency[len(l.recency)-1] = k
			return
		}
	}
}

// Len returns the number of cached entries.
func (l *LRU) Len() int { return len(l.values) }

// Evictions returns how many entries capacity pressure has evicted.
func (l *LRU) Evictions() int { return l.evictions }
