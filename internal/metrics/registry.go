package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of counters, gauges, and histograms
// with one consistency guarantee: Snapshot observes no counter-update
// group half-applied. Writers that must stay mutually consistent (a
// request's terminal transition incrementing exactly one of several
// outcome counters) wrap their updates in Update, which holds the
// registry's read lock; Snapshot takes the write lock and reads every
// instrument in a single pass, so a snapshot can never tear such a
// group — e.g. served + cancelled + errored never exceeds submitted in
// any snapshot, not just at quiescence.
//
// Independent monotone counters (submission-side increments) may skip
// Update and use the Counter directly; the atomic increment alone keeps
// "submitted" ahead of any grouped terminal transition that follows it.
//
// Gauge and histogram callbacks run inside Snapshot under the registry
// lock: they must be lock-ordering leaves — reading atomics, or taking
// only locks never held around a call back into the registry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]func() float64
	histograms map[string]func() *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]func() float64{},
		histograms: map[string]func() *Histogram{},
	}
}

// Counter returns the named counter, registering it on first use.
// Callers across packages (serving replicas sharing one registry) get
// the same counter for the same name.
func (g *Registry) Counter(name string) *Counter {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters[name]
	if c == nil {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge registers a point-in-time probe. fn is called inside Snapshot
// under the registry lock and must not call back into the registry.
// Registering a name again replaces the probe.
func (g *Registry) Gauge(name string, fn func() float64) {
	g.mu.Lock()
	g.gauges[name] = fn
	g.mu.Unlock()
}

// HistogramFunc registers a histogram provider. fn must return a
// snapshot the caller may keep (Clone under the owner's lock) and, like
// a gauge, must not call back into the registry. Returning nil reports
// an empty histogram.
func (g *Registry) HistogramFunc(name string, fn func() *Histogram) {
	g.mu.Lock()
	g.histograms[name] = fn
	g.mu.Unlock()
}

// Update runs fn under the registry's read lock. Counter writes inside
// fn form an atomic group with respect to Snapshot: a snapshot sees all
// of them or none. Concurrent Update groups proceed in parallel.
func (g *Registry) Update(fn func()) {
	g.mu.RLock()
	fn()
	g.mu.RUnlock()
}

// Snapshot is one consistent reading of every registered instrument.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot reads every instrument in one pass under the write lock, so
// no Update group is observed half-applied and no two counters in the
// result disagree about which requests have retired.
func (g *Registry) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Snapshot{Counters: make(map[string]int64, len(g.counters))}
	for name, c := range g.counters {
		s.Counters[name] = c.Load()
	}
	if len(g.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(g.gauges))
		for name, fn := range g.gauges {
			s.Gauges[name] = fn()
		}
	}
	if len(g.histograms) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(g.histograms))
		for name, fn := range g.histograms {
			s.Histograms[name] = fn().Stats()
		}
	}
	return s
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Histogram returns a histogram summary from the snapshot (zero when
// absent).
func (s Snapshot) Histogram(name string) HistogramStats { return s.Histograms[name] }

// Gauge returns a gauge value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// JSON renders the snapshot deterministically (encoding/json sorts map
// keys), so fixed-seed runs export byte-identical snapshots.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", " ")
}

// String renders the snapshot as a sorted, aligned table.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %.4g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-32s p50=%d p95=%d p99.9=%d mean=%.4g n=%d\n",
			n, h.P50, h.P95, h.P999, h.Mean, h.N)
	}
	return b.String()
}
