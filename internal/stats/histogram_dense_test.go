package stats

import "math/bits"

// denseHistogram is the histogram as it was before its storage became
// sparse: one count per bucket from bucket 0 up to the largest sample's.
// It is kept verbatim (renamed) as the reference the sparse Histogram
// must answer identically to; see TestSparseMatchesDense.
type denseHistogram struct {
	counts []uint64
	total  uint64
	min    int64
	max    int64
}

// denseSubBits gives 1<<denseSubBits sub-buckets per power of two.
const denseSubBits = 7

// denseExact is the threshold below which every value has its own bucket.
const denseExact = 1 << (denseSubBits + 1)

// newDenseHistogram returns an empty histogram.
func newDenseHistogram() *denseHistogram { return &denseHistogram{} }

// denseBucketIndex maps a value to its bucket. Values are clamped at zero.
func denseBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < denseExact {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - denseSubBits - 1
	mantissa := int(v >> uint(shift)) // in [1<<denseSubBits, 1<<(denseSubBits+1))
	return denseExact + (shift-1)<<denseSubBits + (mantissa - denseExact/2)
}

// denseBucketValue returns the representative (midpoint) value of a bucket.
func denseBucketValue(idx int) int64 {
	if idx < denseExact {
		return int64(idx)
	}
	rel := idx - denseExact
	shift := rel>>denseSubBits + 1
	mantissa := int64(rel&(1<<denseSubBits-1) + denseExact/2)
	return mantissa<<uint(shift) + int64(1)<<uint(shift)/2
}

// Record adds one sample. Negative samples clamp to zero.
func (h *denseHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := denseBucketIndex(v)
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
func (h *denseHistogram) grow(n int) {
	if n > cap(h.counts) {
		end := denseExact
		if top := n - 1; top >= denseExact {
			end += ((top-denseExact)>>denseSubBits + 1) << denseSubBits
		}
		grown := make([]uint64, n, end)
		copy(grown, h.counts)
		h.counts = grown
		return
	}
	h.counts = h.counts[:n]
}

// Reset empties the histogram, keeping its bucket storage for reuse.
func (h *denseHistogram) Reset() {
	clear(h.counts)
	*h = denseHistogram{counts: h.counts[:0]}
}

// Count returns the number of recorded samples.
func (h *denseHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Min returns the smallest recorded sample (0 when empty).
func (h *denseHistogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *denseHistogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Buckets returns the number of allocated buckets — bounded by the
// sample magnitude, not the sample count.
func (h *denseHistogram) Buckets() int {
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
func (h *denseHistogram) Merge(o *denseHistogram) {
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
func (h *denseHistogram) Quantile(q float64) int64 {
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
			v := denseBucketValue(idx)
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
