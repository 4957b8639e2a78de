package mem

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
)

// accessBoth reads through a reused gate and writes with a callback,
// then drains the engine.
func accessBoth(eng *sim.Engine, d *DRAM, g *sim.Gate, done func()) {
	g.Reset()
	d.Read(g)
	d.WriteThen(done)
	eng.Run()
}

// TestAccessAllocatesNothing pins the steady state of the DRAM model:
// an access allocates nothing of its own, so a caller that reuses its
// gate (or passes a bound callback) pays no allocation per access.
func TestAccessAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	done := func() {}
	accessBoth(eng, d, g, done)
	if n := testing.AllocsPerRun(100, func() { accessBoth(eng, d, g, done) }); n != 0 {
		t.Errorf("Read+WriteThen allocate %v objects per round, want 0", n)
	}
}

// TestCallbackMatchesGate pins that a WriteThen callback runs as the
// one waiter of the gate Write would fire: at the same time, in the
// same order relative to other accesses' gates.
func TestCallbackMatchesGate(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 100*sim.Nanosecond, 1)
	var order []string
	g1, g3 := eng.NewGate(), eng.NewGate()
	g1.OnFire(func() { order = append(order, "gate1") })
	g3.OnFire(func() { order = append(order, "gate3") })
	d.Write(g1)
	d.WriteThen(func() { order = append(order, "fn2@"+eng.Now().String()) })
	d.Write(g3)
	eng.Run()
	want := []string{"gate1", "fn2@" + (200 * sim.Nanosecond).String(), "gate3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// BenchmarkDRAMAccess measures one gated read and one callback write
// on a warm DRAM model, completion included.
func BenchmarkDRAMAccess(b *testing.B) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	done := func() {}
	accessBoth(eng, d, g, done)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accessBoth(eng, d, g, done)
	}
}
