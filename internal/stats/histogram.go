package stats

import "math/bits"

// Histogram is a bounded log-bucketed histogram of non-negative int64
// samples (picosecond latencies, byte counts, ...). It replaces the
// unbounded per-access sample slices the diagnostics used to keep: a
// multi-million-access run records into at most a few thousand buckets
// instead of a slice that grows with the access count.
//
// Bucketing is HDR-style with 128 sub-buckets per power of two: values
// below 256 are exact, and above that each bucket spans value>>7 so the
// bucket midpoint is within 1/256 (~0.4%) of every value it absorbs —
// comfortably inside the 1% accuracy budget of the percentile
// diagnostics. The scheme is closed-form (no rescaling, no allocation
// beyond the count slice), so recording is amortized O(1) and
// deterministic.
type Histogram struct {
	counts []uint64
	total  uint64
	min    int64
	max    int64
}

// histSubBits gives 1<<histSubBits sub-buckets per power of two.
const histSubBits = 7

// histExact is the threshold below which every value has its own bucket.
const histExact = 1 << (histSubBits + 1)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Values are clamped at zero.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histExact {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	mantissa := int(v >> uint(shift)) // in [1<<histSubBits, 1<<(histSubBits+1))
	return histExact + (shift-1)<<histSubBits + (mantissa - histExact/2)
}

// bucketValue returns the representative (midpoint) value of a bucket.
func bucketValue(idx int) int64 {
	if idx < histExact {
		return int64(idx)
	}
	rel := idx - histExact
	shift := rel>>histSubBits + 1
	mantissa := int64(rel&(1<<histSubBits-1) + histExact/2)
	return mantissa<<uint(shift) + int64(1)<<uint(shift)/2
}

// Record adds one sample. Negative samples clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		h.grow(idx + 1)
	}
	h.counts[idx]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// grow extends the bucket range to n buckets. It reserves capacity to
// the end of the top bucket's power-of-two octave, so samples of one
// magnitude reallocate once rather than once per new top bucket, and
// at most one octave's buckets sit unused. Buckets past len are always
// zero: Reset clears what it drops.
func (h *Histogram) grow(n int) {
	if n > cap(h.counts) {
		end := histExact
		if top := n - 1; top >= histExact {
			end += ((top-histExact)>>histSubBits + 1) << histSubBits
		}
		grown := make([]uint64, n, end)
		copy(grown, h.counts)
		h.counts = grown
		return
	}
	h.counts = h.counts[:n]
}

// Reset empties the histogram, keeping its bucket storage for reuse.
func (h *Histogram) Reset() {
	clear(h.counts)
	*h = Histogram{counts: h.counts[:0]}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Buckets returns the number of allocated buckets — bounded by the
// sample magnitude, not the sample count.
func (h *Histogram) Buckets() int {
	if h == nil {
		return 0
	}
	return len(h.counts)
}

// Merge adds every sample of o into h, bucket-wise. Both histograms
// use the package's single closed-form bucketing scheme, so the only
// structural difference two instances can have is the allocated bucket
// range; the guard below grows h as needed and a nil or empty o is a
// no-op. Merge is the window→run rollup primitive of the telemetry
// recorder: per-window histograms merge into coalesced windows and
// into the whole-run percentile summary without re-recording samples.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil {
		panic("stats: Merge into nil histogram")
	}
	if o == nil || o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		h.grow(len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
}

// Quantile returns the q-quantile sample value using the same
// nearest-rank convention as the exact-slice percentile it replaced
// (rank = floor(q*n), clamped to [1, n]). It returns 0 when empty. The
// result is the representative value of the bucket holding the ranked
// sample, clamped into [Min, Max] so extreme quantiles never leave the
// observed range.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for idx, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketValue(idx)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
