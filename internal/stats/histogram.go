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
//
// Storage is sparse: counts[i] holds bucket base+i, and the slice
// covers the used bucket range [bucketIndex(min), bucketIndex(max)]
// plus headroom, so a window of microsecond latencies holds a few dozen
// buckets rather than every bucket from zero up (about 15 KB).
type Histogram struct {
	counts []uint64 // counts[i] is bucket base+i; zero outside the used range
	base   int
	total  uint64
	min    int64
	max    int64
}

// histSubBits gives 1<<histSubBits sub-buckets per power of two.
const histSubBits = 7

// histExact is the threshold below which every value has its own bucket.
const histExact = 1 << (histSubBits + 1)

// histGranule is the storage granule: bucket storage starts and ends
// on multiples of it. Above histExact it is a quarter of an octave's
// buckets (values within 12-25% of each other), about the spread of one
// telemetry window's latencies, so a typical window holds one to three
// granules.
const histGranule = 1 << (histSubBits - 2)

// histBuckets is the number of buckets the int64 range needs.
var histBuckets = bucketIndex(1<<63-1) + 1

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
	if uint(idx-h.base) >= uint(len(h.counts)) {
		h.cover(idx, idx)
	}
	h.counts[idx-h.base]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// used returns the first and last bucket holding samples; the
// histogram must be non-empty.
func (h *Histogram) used() (lo, hi int) {
	return bucketIndex(h.min), bucketIndex(h.max)
}

// cover makes storage span buckets [lo, hi] as well as the used range.
// The needed range is widened to whole granules. When it fits in the
// current storage the counts slide within it; otherwise storage grows
// to at least 1.5 times its size, with the headroom on the side that
// grew, so descending and ascending inputs both reallocate O(log n)
// times. Storage never grows past what the need and that factor ask,
// so a reused histogram does not creep.
func (h *Histogram) cover(lo, hi int) {
	if h.total > 0 {
		ulo, uhi := h.used()
		lo, hi = min(lo, ulo), max(hi, uhi)
	}
	start := lo &^ (histGranule - 1)
	end := min(hi|(histGranule-1)+1, histBuckets)
	n := len(h.counts)
	down := lo < h.base // growing below the current storage
	if end-start <= n {
		base := start
		if down {
			base = max(end-n, 0)
		}
		h.slide(base)
		return
	}
	size := max(end-start, n+n/2)
	size = min((size+histGranule-1)&^(histGranule-1), histBuckets)
	base := start
	if down {
		base = max(end-size, 0)
	}
	base = min(base, histBuckets-size)
	grown := make([]uint64, size)
	if h.total > 0 {
		ulo, uhi := h.used()
		copy(grown[ulo-base:], h.counts[ulo-h.base:uhi-h.base+1])
	}
	h.counts, h.base = grown, base
}

// slide re-bases storage in place; the used range must fit at the new
// base. Buckets outside the used range stay zero.
func (h *Histogram) slide(base int) {
	if h.total > 0 && base != h.base {
		ulo, uhi := h.used()
		src := h.counts[ulo-h.base : uhi-h.base+1]
		dst := h.counts[ulo-base : uhi-base+1]
		copy(dst, src)
		// Zero what the copy left behind of the old placement.
		if base > h.base {
			clear(h.counts[uhi-base+1 : uhi-h.base+1])
		} else {
			clear(h.counts[ulo-h.base : min(ulo-base, uhi-h.base+1)])
		}
	}
	h.base = base
}

// Reset empties the histogram, keeping its bucket storage for reuse.
func (h *Histogram) Reset() {
	if h.total > 0 {
		lo, hi := h.used()
		clear(h.counts[lo-h.base : hi-h.base+1])
	}
	*h = Histogram{counts: h.counts, base: h.base}
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

// Buckets returns the width of the used bucket range, from the
// minimum's bucket to the maximum's — bounded by the sample magnitude,
// not the sample count.
func (h *Histogram) Buckets() int {
	if h == nil || h.total == 0 {
		return 0
	}
	lo, hi := h.used()
	return hi - lo + 1
}

// Merge adds every sample of o into h, bucket-wise. Both histograms
// use the package's single closed-form bucketing scheme, so the only
// structural difference two instances can have is the stored bucket
// range; h's storage grows to cover o's used range and a nil or empty
// o is a no-op. Merge is the window→run rollup primitive of the
// telemetry recorder: per-window histograms merge into coalesced
// windows and into the whole-run percentile summary without
// re-recording samples.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil {
		panic("stats: Merge into nil histogram")
	}
	if o == nil || o.total == 0 {
		return
	}
	lo, hi := o.used()
	if lo < h.base || hi >= h.base+len(h.counts) {
		h.cover(lo, hi)
	}
	dst := h.counts[lo-h.base:]
	for i, c := range o.counts[lo-o.base : hi-o.base+1] {
		dst[i] += c
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
	var v [1]int64
	h.Quantiles(v[:], q)
	return v[0]
}

// Quantiles sets out[i] to Quantile(qs[i]) for every i in one scan of
// the used buckets. qs must be non-decreasing; out must be at least as
// long as qs.
func (h *Histogram) Quantiles(out []int64, qs ...float64) {
	if h == nil || h.total == 0 {
		clear(out[:len(qs)])
		return
	}
	lo, hi := h.used()
	k := 0
	var cum uint64
	for idx := lo; idx <= hi && k < len(qs); idx++ {
		cum += h.counts[idx-h.base]
		for k < len(qs) && cum >= h.rank(qs[k]) {
			out[k] = min(max(bucketValue(idx), h.min), h.max)
			k++
		}
	}
	for ; k < len(qs); k++ {
		out[k] = h.max
	}
}

// rank is the nearest-rank position of the q-quantile, in [1, total].
func (h *Histogram) rank(q float64) uint64 {
	rank := uint64(q * float64(h.total))
	return min(max(rank, 1), h.total)
}
