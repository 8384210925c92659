package trace

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Metrics is a small simulated-time metrics registry: gauges and latency
// summaries whose values are simulated quantities (cycles, simulated
// milliseconds, cache hit counts), exposed in the Prometheus text format.
// Unlike the event recorder it is safe for concurrent use — metrics are
// host-side bookkeeping outside the simulation, so a mutex here cannot
// perturb any simulated observable. Exposition order is registration order,
// so a fixed registration sequence yields byte-identical exposition for
// identical workloads.
type Metrics struct {
	mu    sync.Mutex
	order []*metric
	byN   map[string]*metric
}

type metricKind uint8

const (
	kindGauge metricKind = iota
	kindSummary
)

type metric struct {
	name string
	help string
	kind metricKind
	val  float64

	// summary state: retained observations for exact quantiles.
	obs      []float64
	obsSum   float64
	obsCount uint64
	maxObs   int
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{byN: map[string]*metric{}} }

func (m *Metrics) register(name, help string, kind metricKind) *metric {
	m.mu.Lock()
	defer m.mu.Unlock()
	if got := m.byN[name]; got != nil {
		return got
	}
	mt := &metric{name: name, help: help, kind: kind, maxObs: 1 << 16}
	m.byN[name] = mt
	m.order = append(m.order, mt)
	return mt
}

// Gauge is a value that can go up and down. Nil-safe.
type Gauge struct {
	m  *Metrics
	mt *metric
}

// Gauge registers (or returns) the named gauge.
func (m *Metrics) Gauge(name, help string) *Gauge {
	if m == nil {
		return nil
	}
	return &Gauge{m: m, mt: m.register(name, help, kindGauge)}
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.m.mu.Lock()
	g.mt.val = v
	g.m.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.m.mu.Lock()
	defer g.m.mu.Unlock()
	return g.mt.val
}

// Summary retains observations (simulated latencies, usually) and exposes
// exact p50/p95/p99 quantiles plus sum and count. Nil-safe.
type Summary struct {
	m  *Metrics
	mt *metric
}

// Summary registers (or returns) the named summary.
func (m *Metrics) Summary(name, help string) *Summary {
	if m == nil {
		return nil
	}
	return &Summary{m: m, mt: m.register(name, help, kindSummary)}
}

// Observe records one observation. Retention is bounded (65536 observations);
// past the bound new observations still count toward sum/count but no longer
// shift the retained quantile set.
func (s *Summary) Observe(v float64) {
	if s == nil {
		return
	}
	s.m.mu.Lock()
	s.mt.obsSum += v
	s.mt.obsCount++
	if len(s.mt.obs) < s.mt.maxObs {
		s.mt.obs = append(s.mt.obs, v)
	}
	s.m.mu.Unlock()
}

// Quantile returns the q-quantile (0 <= q <= 1) of the retained observations
// by nearest-rank, or 0 when empty.
func (s *Summary) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return quantile(s.mt.obs, q)
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 {
	if s == nil {
		return 0
	}
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.mt.obsCount
}

func quantile(obs []float64, q float64) float64 {
	if len(obs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), obs...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))) - 1
	if q > 0 && float64(int(q*float64(len(sorted)))) < q*float64(len(sorted)) {
		idx++ // nearest rank: ceil(q*n) - 1
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), in registration order. Summaries expose
// quantile-labeled series for p50/p95/p99 plus _sum and _count.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var b bytes.Buffer
	for _, mt := range m.order {
		if mt.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", mt.name, mt.help)
		}
		switch mt.kind {
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", mt.name, mt.name, fmtVal(mt.val))
		case kindSummary:
			fmt.Fprintf(&b, "# TYPE %s summary\n", mt.name)
			for _, q := range [...]float64{0.5, 0.95, 0.99} {
				fmt.Fprintf(&b, "%s{quantile=%q} %s\n", mt.name,
					strconv.FormatFloat(q, 'g', -1, 64), fmtVal(quantile(mt.obs, q)))
			}
			fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", mt.name, fmtVal(mt.obsSum), mt.name, mt.obsCount)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
