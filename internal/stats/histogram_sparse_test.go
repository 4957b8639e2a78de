package stats

import (
	"fmt"
	"testing"
)

// pairQuantiles are the quantiles the sparse and dense histograms must
// agree on exactly.
var pairQuantiles = []float64{0, 0.5, 0.9, 0.99, 0.999, 1}

// histPair records every sample into a sparse Histogram and into the
// dense reference.
type histPair struct {
	s *Histogram
	d *denseHistogram
}

func newHistPair() histPair { return histPair{NewHistogram(), newDenseHistogram()} }

func (p histPair) record(v int64) {
	p.s.Record(v)
	p.d.Record(v)
}

func (p histPair) merge(o histPair) {
	p.s.Merge(o.s)
	p.d.Merge(o.d)
}

// check fails unless the pair answers identically.
func (p histPair) check(t *testing.T, what string) {
	t.Helper()
	if p.s.Count() != p.d.Count() || p.s.Min() != p.d.Min() || p.s.Max() != p.d.Max() {
		t.Fatalf("%s: sparse count/min/max %d/%d/%d, dense %d/%d/%d", what,
			p.s.Count(), p.s.Min(), p.s.Max(), p.d.Count(), p.d.Min(), p.d.Max())
	}
	got := make([]int64, len(pairQuantiles))
	p.s.Quantiles(got, pairQuantiles...)
	for i, q := range pairQuantiles {
		want := p.d.Quantile(q)
		if s := p.s.Quantile(q); s != want {
			t.Fatalf("%s: Quantile(%g) sparse %d, dense %d", what, q, s, want)
		}
		if got[i] != want {
			t.Fatalf("%s: Quantiles[%g] sparse %d, dense %d", what, q, got[i], want)
		}
	}
}

// corpora are seeded sample streams covering the shapes that move the
// sparse storage: single octaves, wide spreads, descending inputs that
// keep prepending below the base, and zero or negative values.
var corpora = []struct {
	name string
	gen  func(r *Rand, i, n int) int64
}{
	{"one-octave", func(r *Rand, i, n int) int64 { return 1<<20 + int64(r.Uint64()%(1<<20)) }},
	{"microseconds", func(r *Rand, i, n int) int64 { return 800_000 + int64(r.Uint64()%4_000_000) }},
	{"wide", func(r *Rand, i, n int) int64 { return int64(r.Uint64() >> (1 + r.Uint64()%63)) }},
	{"descending", func(r *Rand, i, n int) int64 { return int64(n-i) * 997_331 }},
	{"descending-octaves", func(r *Rand, i, n int) int64 { return int64(1) << (62 - 62*i/n) }},
	{"ascending", func(r *Rand, i, n int) int64 { return int64(i) * int64(i) * 4099 }},
	{"zero-and-negative", func(r *Rand, i, n int) int64 { return int64(r.Uint64()%600) - 300 }},
	{"small-exact", func(r *Rand, i, n int) int64 { return int64(r.Uint64() % 256) }},
	{"alternating-ends", func(r *Rand, i, n int) int64 {
		if i%2 == 0 {
			return int64(r.Uint64() % 1000)
		}
		return 1<<50 + int64(r.Uint64()%(1<<40))
	}},
}

// TestSparseMatchesDense pins that the sparse layout answers exactly
// as the dense one it replaced, over every corpus and several seeds.
func TestSparseMatchesDense(t *testing.T) {
	for _, c := range corpora {
		for seed := uint64(1); seed <= 4; seed++ {
			r := NewRand(seed)
			p := newHistPair()
			const n = 5000
			for i := 0; i < n; i++ {
				p.record(c.gen(r, i, n))
				if i%997 == 0 {
					p.check(t, fmt.Sprintf("%s seed %d after %d", c.name, seed, i+1))
				}
			}
			p.check(t, fmt.Sprintf("%s seed %d", c.name, seed))
		}
	}
}

// TestSparseMergeMatchesDense merges disjoint, overlapping, empty and
// nil histograms in both directions and compares against the dense
// reference after each merge.
func TestSparseMergeMatchesDense(t *testing.T) {
	fill := func(seed uint64, lo, span int64, n int) histPair {
		r := NewRand(seed)
		p := newHistPair()
		for i := 0; i < n; i++ {
			p.record(lo + int64(r.Uint64()%uint64(span)))
		}
		return p
	}
	cases := []struct {
		name string
		a, b func() histPair
	}{
		{"disjoint-low-high", func() histPair { return fill(1, 0, 5_000, 900) }, func() histPair { return fill(2, 1<<40, 1<<30, 700) }},
		{"disjoint-high-low", func() histPair { return fill(3, 1<<40, 1<<30, 700) }, func() histPair { return fill(4, 100, 50, 900) }},
		{"overlapping", func() histPair { return fill(5, 1_000_000, 3_000_000, 800) }, func() histPair { return fill(6, 2_000_000, 9_000_000, 800) }},
		{"nested", func() histPair { return fill(7, 1, 1<<45, 800) }, func() histPair { return fill(8, 1<<20, 1<<21, 800) }},
		{"empty-into-full", func() histPair { return fill(9, 1_000_000, 1_000, 50) }, newHistPair},
		{"full-into-empty", newHistPair, func() histPair { return fill(10, 1_000_000, 1_000, 50) }},
		{"empty-into-empty", newHistPair, newHistPair},
	}
	for _, c := range cases {
		for _, dir := range []string{"a<-b", "b<-a"} {
			a, b := c.a(), c.b()
			if dir == "b<-a" {
				a, b = b, a
			}
			a.merge(b)
			a.check(t, c.name+" "+dir)
			// A second merge of the same source lands on grown storage.
			a.merge(b)
			a.check(t, c.name+" "+dir+" twice")
		}
	}
	p := fill(11, 500, 5_000, 100)
	p.s.Merge(nil)
	p.d.Merge(nil)
	p.check(t, "nil source")
}

// TestSparseResetReuseMatchesDense records batches of very different
// magnitude into one reset-and-reused histogram, as the telemetry
// recorder does with merged-away window histograms.
func TestSparseResetReuseMatchesDense(t *testing.T) {
	r := NewRand(0xFEED)
	s := NewHistogram()
	for round, span := range []int64{1 << 40, 300, 1 << 22, 1 << 62, 1, 5_000_000, 1 << 10} {
		s.Reset()
		d := newDenseHistogram()
		p := histPair{s, d}
		lo := span / 2
		for i := 0; i < 2000; i++ {
			p.record(lo + int64(r.Uint64()%uint64(span)))
		}
		p.check(t, fmt.Sprintf("round %d span %d", round, span))
	}
	// Reuse at one magnitude must not creep: once storage covers the
	// range, later rounds slide within it instead of growing it.
	var settled int
	for round := 0; round < 50; round++ {
		s.Reset()
		for i := 0; i < 200; i++ {
			s.Record(1_000_000 + int64(r.Uint64()%3_000_000))
		}
		if round == 1 {
			settled = cap(s.counts)
		}
		if round > 1 && cap(s.counts) != settled {
			t.Fatalf("round %d: storage %d buckets, settled at %d", round, cap(s.counts), settled)
		}
	}
}

// TestSparseWindowStorage pins the point of the sparse layout: a 10 us
// telemetry window of latencies within one octave holds at most 2 KB
// of bucket storage, where the dense layout held every bucket from 0.
func TestSparseWindowStorage(t *testing.T) {
	r := NewRand(7)
	s, d := NewHistogram(), newDenseHistogram()
	// Latencies between 1 and 2 us, in picoseconds.
	for i := 0; i < 500; i++ {
		v := 1_000_000 + int64(r.Uint64()%1_000_000)
		s.Record(v)
		d.Record(v)
	}
	const limit = 2 << 10
	if b := cap(s.counts) * 8; b > limit {
		t.Errorf("sparse window holds %d bytes of buckets, want <= %d", b, limit)
	}
	t.Logf("sparse %d B, dense %d B", cap(s.counts)*8, cap(d.counts)*8)
}
