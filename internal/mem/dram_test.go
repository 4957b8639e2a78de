package mem

import (
	"testing"

	"repro/internal/sim"
)

func TestReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	d.Read(g)
	eng.Run()
	if !g.Fired() || g.FiredAt() != 80*sim.Nanosecond {
		t.Errorf("read completed at %v, want 80ns", g.FiredAt())
	}
	if d.Reads() != 1 || d.Writes() != 0 {
		t.Errorf("reads=%d writes=%d, want 1,0", d.Reads(), d.Writes())
	}
}

func TestWriteCounted(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	g := eng.NewGate()
	d.Write(g)
	eng.Run()
	if d.Writes() != 1 {
		t.Errorf("writes=%d, want 1", d.Writes())
	}
}

func TestParallelReadsWithinLimit(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 80*sim.Nanosecond, 48)
	gates := make([]*sim.Gate, 48)
	for i := range gates {
		gates[i] = eng.NewGate()
		d.Read(gates[i])
	}
	end := eng.Run()
	// All 48 fit simultaneously: total time is one latency.
	if end != 80*sim.Nanosecond {
		t.Errorf("48 parallel reads took %v, want 80ns", end)
	}
	if d.MaxOutstandingSeen() != 48 {
		t.Errorf("max outstanding %d, want 48", d.MaxOutstandingSeen())
	}
}

func TestOutstandingLimitSerializes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, 100*sim.Nanosecond, 2)
	for i := 0; i < 4; i++ {
		d.Read(eng.NewGate())
	}
	end := eng.Run()
	// 4 reads through 2 slots: two waves of 100ns.
	if end != 200*sim.Nanosecond {
		t.Errorf("4 reads over 2 slots took %v, want 200ns", end)
	}
}
