package pcie

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/race"
	"repro/internal/sim"
)

// sendBoth sends one packet now and one held until a future ready
// time, then drains the engine.
func sendBoth(eng *sim.Engine, l *Link, done func()) {
	l.SendUp(platform.CacheLineBytes, platform.CacheLineBytes, done)
	l.SendUpAt(eng.Now()+sim.Microsecond, platform.CacheLineBytes, platform.CacheLineBytes, done)
	eng.Run()
}

// TestSendAllocatesNothing pins the steady state of the link: once the
// engine and the link's held-packet records are warm, sending costs no
// allocation, whether the packet leaves now or at a future time.
func TestSendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	eng, l, _ := testLink(t)
	done := func() {}
	sendBoth(eng, l, done)
	if n := testing.AllocsPerRun(100, func() { sendBoth(eng, l, done) }); n != 0 {
		t.Errorf("SendUp+SendUpAt allocate %v objects per round, want 0", n)
	}
}

// BenchmarkLinkSend measures one immediate and one future-dated
// cache-line TLP on a warm link, delivery included.
func BenchmarkLinkSend(b *testing.B) {
	eng := sim.NewEngine()
	l := NewLink(eng, platform.Default())
	done := func() {}
	sendBoth(eng, l, done)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendBoth(eng, l, done)
	}
}
