package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks (so quantile(xs, 0.5) is the
// median); xs is left untouched. Zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles is the ladder a _tail metric picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports a _tail metric: the value at the highest ladder percentile
// with at least ten samples beyond it, with that percentile. Below twenty
// samples no rung qualifies and the maximum (percentile 100) is reported.
func tail(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10-1e-9 { // 1e-9 absorbs 100-p's rounding
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 1), 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak samples the live heap — the bytes the last GC found reachable —
// on a short period until stopped, keeping the maximum. Live bytes, unlike
// heap bytes in use, do not depend on when the GC pacer happened to run.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeap = "/gc/heap/live:bytes"

// liveHeapMB runs a collection and returns the live heap after it, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeap}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for stopped := false; !stopped; {
			select {
			case <-h.stop:
				stopped = true // take one last reading
			case <-tick.C:
			}
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// runtimeSnapshot holds the counters the runtime metrics are deltas of.
type runtimeSnapshot struct {
	wall    time.Time
	procCPU time.Duration
	allocs  uint64
}

func takeRuntimeSnapshot() runtimeSnapshot {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeSnapshot{wall: time.Now(), procCPU: processCPU(), allocs: s[0].Value.Uint64()}
}

// processCPU is the user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeUse is what a timed phase cost the Go runtime and the host.
type runtimeUse struct {
	allocMB float64 // heap bytes allocated
	cpuUtil float64 // process CPU over wall × GOMAXPROCS
	procCPU time.Duration
}

func runtimeSince(a runtimeSnapshot) runtimeUse {
	b := takeRuntimeSnapshot()
	var u runtimeUse
	u.allocMB = float64(b.allocs-a.allocs) / 1e6
	u.procCPU = b.procCPU - a.procCPU
	if wall := b.wall.Sub(a.wall); wall > 0 {
		u.cpuUtil = u.procCPU.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	return u
}

// spans records the benchmark's own spans around its calls into the
// program. A nil *spans records nothing, so untraced runs pay one nil
// check per call site. Spans stay in memory and are written at the end.
type spans struct {
	origin time.Time
	mu     sync.Mutex
	list   []span
}

// span is one timed call. Spans of one request (or step) share ID.
type span struct {
	ID    int64
	Name  string
	Start time.Duration
	End   time.Duration
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) add(id int64, name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{ID: id, Name: name, Start: start.Sub(s.origin), End: end.Sub(s.origin)})
	s.mu.Unlock()
}

// chromeEvent is one span in the Chrome trace_event format, loadable in
// Perfetto or chrome://tracing (tid groups the spans of one request).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int64   `json:"tid"`
}

func (s *spans) chrome() []chromeEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]chromeEvent, len(s.list))
	for i, sp := range s.list {
		out[i] = chromeEvent{Name: sp.Name, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3, Tid: sp.ID}
	}
	return out
}
