package metrics

import (
	"math"
	"math/bits"
	"time"
)

// Histogram is a fixed-shape log-linear histogram over non-negative int64
// values (nanoseconds, by convention). Every histogram in the process has
// the identical bucket layout — histSubCount linear sub-buckets per power
// of two — so Merge is exact bucket-wise addition: unlike sampling-based
// reservoir merging, merged percentiles are deterministic and independent
// of merge order. Relative quantile error is bounded by the sub-bucket
// width, 1/histSubCount = 12.5%.
//
// Each bucket additionally retains up to HistExemplars exemplar request
// IDs — the largest distinct IDs ever recorded into that bucket — so a
// tail bucket links directly back to flight-recorder rings and trace
// spans ("which requests are slow"). Keeping the K largest distinct IDs
// is a pure set operation, which is what makes exemplar retention (and
// therefore Merge) invariant under record/merge permutation.
//
// Record is zero-alloc: all state lives in fixed arrays inside the
// struct. Not goroutine-safe; callers guard it with their own lock.
type Histogram struct {
	counts [histBuckets]int64
	ex     [histBuckets][HistExemplars]int64
	exLen  [histBuckets]uint8
	n      int64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // 8 linear sub-buckets per octave
	// Buckets 0..histSubCount-1 are width-1; each octave above contributes
	// histSubCount more, up to values just below 2^63.
	histBuckets = (63-histSubBits)*histSubCount + histSubCount

	// HistExemplars is the per-bucket exemplar retention bound K.
	HistExemplars = 4
)

// NewHistogram returns an empty histogram. The zero value is also ready
// to use.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket. Monotone and
// continuous: u=7→7, u=8→8, u=15→15, u=16→16.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := int((u >> (uint(exp) - histSubBits)) & (histSubCount - 1))
	return (exp-histSubBits)*histSubCount + sub + histSubCount
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	e := i/histSubCount - 1 + histSubBits
	sub := i & (histSubCount - 1)
	return int64(1)<<uint(e) | int64(sub)<<uint(e-histSubBits)
}

// bucketWidth returns the width of bucket i.
func bucketWidth(i int) int64 {
	if i < histSubCount {
		return 1
	}
	e := i/histSubCount - 1 + histSubBits
	return int64(1) << uint(e-histSubBits)
}

// Record adds one value with an optional exemplar request ID (negative =
// no exemplar). Negative values clamp to zero. Zero-alloc.
func (h *Histogram) Record(v int64, exemplar int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.counts[i]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if exemplar >= 0 {
		h.addExemplar(i, exemplar)
	}
}

// RecordDuration records a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration, exemplar int64) {
	h.Record(int64(d), exemplar)
}

// addExemplar keeps bucket i's slots as the K largest distinct IDs, stored
// sorted ascending. Insertion is order-invariant: the retained set depends
// only on the set of IDs ever offered.
func (h *Histogram) addExemplar(i int, id int64) {
	n := int(h.exLen[i])
	slots := &h.ex[i]
	for j := 0; j < n; j++ {
		if slots[j] == id {
			return
		}
	}
	if n < HistExemplars {
		j := n
		for j > 0 && slots[j-1] > id {
			slots[j] = slots[j-1]
			j--
		}
		slots[j] = id
		h.exLen[i] = uint8(n + 1)
		return
	}
	if id <= slots[0] {
		return
	}
	j := 1
	for j < HistExemplars && slots[j] < id {
		slots[j-1] = slots[j]
		j++
	}
	slots[j-1] = id
}

// N returns the number of recorded values.
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the running sum of recorded values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.max
}

// Merge folds src into h: bucket-wise count addition plus exemplar-set
// union (keeping the K largest distinct IDs per bucket). Because both
// operations are commutative and associative, any merge order over any
// partitioning of the same records yields the identical histogram.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src.n == 0 {
		return
	}
	if h.n == 0 || src.min < h.min {
		h.min = src.min
	}
	if src.max > h.max {
		h.max = src.max
	}
	h.n += src.n
	h.sum += src.sum
	for i := range h.counts {
		h.counts[i] += src.counts[i]
		for j := 0; j < int(src.exLen[i]); j++ {
			h.addExemplar(i, src.ex[i][j])
		}
	}
}

// Clone returns an independent copy. Stats readers use it to hand out
// snapshots without racing the writer's lock discipline.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	out := *h
	return &out
}

// quantileBucket returns the bucket index holding the p-th percentile and
// the cumulative count below it, or -1 when empty.
func (h *Histogram) quantileBucket(p float64) (int, int64, int64) {
	if h == nil || h.n == 0 {
		return -1, 0, 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if cum+c >= target {
			return i, cum, target
		}
		cum += c
	}
	return -1, 0, 0
}

// Quantile returns the p-th percentile (0..100) with linear interpolation
// inside the containing bucket, clamped to the observed [min, max]. The
// result is exact to within the bucket width (≤ 12.5% relative error).
func (h *Histogram) Quantile(p float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	i, cum, target := h.quantileBucket(p)
	if i < 0 {
		return h.max
	}
	frac := float64(target-cum) / float64(h.counts[i])
	v := bucketLow(i) + int64(frac*float64(bucketWidth(i)))
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// ExemplarsAt returns the exemplar request IDs retained by the bucket
// holding the p-th percentile, largest first. These are the request IDs
// to look up in flight-recorder rings and trace exports.
func (h *Histogram) ExemplarsAt(p float64) []int64 {
	i, _, _ := h.quantileBucket(p)
	if i < 0 {
		return nil
	}
	n := int(h.exLen[i])
	out := make([]int64, 0, n)
	for j := n - 1; j >= 0; j-- {
		out = append(out, h.ex[i][j])
	}
	return out
}

// Checksum returns an FNV-1a hash over the full histogram state (counts,
// exemplars, moments). Two histograms built from the same records in any
// order hash identically — experiments pin determinism on this.
func (h *Histogram) Checksum() uint64 {
	const prime = 1099511628211
	hash := uint64(14695981039346656037)
	mix := func(v int64) {
		u := uint64(v)
		for s := 0; s < 64; s += 8 {
			hash ^= (u >> uint(s)) & 0xff
			hash *= prime
		}
	}
	if h == nil {
		return hash
	}
	mix(h.n)
	mix(h.sum)
	mix(h.min)
	mix(h.max)
	for i := range h.counts {
		if h.counts[i] == 0 && h.exLen[i] == 0 {
			continue
		}
		mix(int64(i))
		mix(h.counts[i])
		for j := 0; j < int(h.exLen[i]); j++ {
			mix(h.ex[i][j])
		}
	}
	return hash
}

// HistogramStats summarises one histogram at snapshot time. Values are
// nanoseconds (the convention for every latency histogram in the repo).
// TailExemplars are the request IDs retained by the p99.9 bucket.
type HistogramStats struct {
	N             int64   `json:"n"`
	P50           int64   `json:"p50_ns"`
	P95           int64   `json:"p95_ns"`
	P999          int64   `json:"p999_ns"`
	Mean          float64 `json:"mean_ns"`
	Min           int64   `json:"min_ns"`
	Max           int64   `json:"max_ns"`
	TailExemplars []int64 `json:"tail_exemplars,omitempty"`
}

// Stats computes the snapshot summary (nil-safe: a nil histogram reports
// zeros, which is how the registry reports a nil provider).
func (h *Histogram) Stats() HistogramStats {
	if h == nil || h.n == 0 {
		return HistogramStats{}
	}
	return HistogramStats{
		N:             h.n,
		P50:           h.Quantile(50),
		P95:           h.Quantile(95),
		P999:          h.Quantile(99.9),
		Mean:          h.Mean(),
		Min:           h.min,
		Max:           h.max,
		TailExemplars: h.ExemplarsAt(99.9),
	}
}
