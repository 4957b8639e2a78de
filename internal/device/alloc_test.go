package device

import (
	"testing"

	"repro/internal/hostmem"
	"repro/internal/platform"
	"repro/internal/race"
	"repro/internal/replay"
	"repro/internal/trace"
)

// readLines issues n MMIO reads of distinct lines and drains the engine.
func (r *rig) readLines(n int, done func([]byte)) {
	for i := 0; i < n; i++ {
		r.dev.MMIORead(0, uint64(i)*replay.LineSize, trace.Span{}, nil, done)
	}
	r.eng.Run()
}

// roundTrip drives the endpoint from the caller itself: it pushes a
// descriptor, rings the doorbell when the device asked for one, runs
// the engine until the fetcher parks again, and consumes the
// completion and its line.
func (s *swqRig) roundTrip(addr uint64) []byte {
	id := s.rq.Push(addr, 0, s.eng.Now())
	if s.rq.DoorbellRequested() {
		s.rq.ClearDoorbellRequested()
		s.ep.Doorbell()
	}
	s.eng.Run()
	s.cq.Drain()
	return s.ep.Data(id)
}

// TestMMIOReadAllocatesNothing pins the steady state of the MMIO read
// path: with the device's read records and the link's held packets
// warm, a read allocates nothing (the zero backing hands out a shared
// line).
func TestMMIOReadAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	r := newRig(platform.Default())
	got := 0
	done := func([]byte) { got++ }
	r.readLines(16, done)
	if n := testing.AllocsPerRun(100, func() { r.readLines(16, done) }); n != 0 {
		t.Errorf("16 MMIO reads allocate %v objects, want 0", n)
	}
	if got != 16*102 {
		t.Errorf("%d responses, want %d", got, 16*102)
	}
}

// TestSWQRoundTripAllocatesNothing pins the steady state of the
// software-queue endpoint: doorbell, burst fetches, the doorbell-flag
// write, the response-data and completion writes, and the host-side
// drain reuse their gates, records and buffers.
func TestSWQRoundTripAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	s := newSWQRig(t, platform.Default(), 0)
	for i := 0; i < 4; i++ {
		s.roundTrip(uint64(i) * replay.LineSize)
	}
	addr := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		addr += replay.LineSize
		if line := s.roundTrip(addr); len(line) != platform.CacheLineBytes {
			t.Fatalf("round trip returned %d bytes", len(line))
		}
	}); n != 0 {
		t.Errorf("SWQ round trip allocates %v objects, want 0", n)
	}
	s.ep.Stop()
	s.eng.Run()
}

// BenchmarkDeviceMMIORead measures batches of 16 concurrent MMIO reads
// on a warm device, responses included.
func BenchmarkDeviceMMIORead(b *testing.B) {
	r := newRig(platform.Default())
	done := func([]byte) {}
	r.readLines(16, done)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.readLines(16, done)
	}
}

// BenchmarkSWQRoundTrip measures one software-queue round trip: a
// descriptor pushed, the doorbell rung, the fetcher's bursts, the
// response and completion writes, and the host's drain.
func BenchmarkSWQRoundTrip(b *testing.B) {
	r := newRig(platform.Default())
	rq, cq := hostmem.NewRequestQueue(), hostmem.NewCompletionQueue()
	s := &swqRig{rig: r, rq: rq, cq: cq, ep: r.dev.NewSWQEndpoint(0, rq, cq)}
	s.roundTrip(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.roundTrip(uint64(i+1) * replay.LineSize)
	}
	b.StopTimer()
	s.ep.Stop()
	s.eng.Run()
}
