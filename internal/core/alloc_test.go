package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/race"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocsPerAccess runs mech on a four-read microbenchmark at two sizes
// and returns the allocations each extra access costs. The difference
// cancels the fixed cost of building the platform and the threads, so
// what is left is the per-access path.
func allocsPerAccess(t *testing.T, mech func(platform.Config, Workload, int, bool) (Result, error), sinks func(*platform.Config)) float64 {
	t.Helper()
	cfg := platform.Default().WithCores(2)
	sinks(&cfg)
	run := func(iters int) (allocs float64, accesses int) {
		w := workload.NewMicrobench(iters, workload.DefaultWorkCount, 4)
		allocs = testing.AllocsPerRun(1, func() {
			r, err := mech(cfg, w, 8, false)
			if err != nil {
				t.Fatal(err)
			}
			accesses = r.Accesses
		})
		return allocs, accesses
	}
	run(400) // warm the engine scratch pool
	a1, n1 := run(400)
	a2, n2 := run(1600)
	return (a2 - a1) / float64(n2-n1)
}

// TestAccessPathAllocations pins the allocation-free access path of the
// two mechanisms that dominate the sweeps: nothing per access with the
// sinks off, nothing with attribution on (the ledger is embedded in
// the access record), and only the flight recorder's per-window cost
// with attribution and 10 us metric windows on.
func TestAccessPathAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	mechs := []struct {
		name string
		run  func(platform.Config, Workload, int, bool) (Result, error)
	}{
		{"prefetch", RunPrefetch},
		{"swqueue", RunSWQueue},
	}
	for _, m := range mechs {
		for _, tc := range []struct {
			sinks string
			set   func(*platform.Config)
			max   float64
		}{
			{"off", func(*platform.Config) {}, 0.01},
			{"attribution", func(c *platform.Config) { c.Attribution = true }, 0.01},
			{"attribution+metrics", func(c *platform.Config) {
				c.Attribution = true
				c.MetricsWindow = 10 * sim.Microsecond
			}, 0.025},
		} {
			got := allocsPerAccess(t, m.run, tc.set)
			t.Logf("%s sinks=%s: %.4f allocations per access", m.name, tc.sinks, got)
			if got > tc.max {
				t.Errorf("%s sinks=%s: %.3f allocations per access, want <= %.2f",
					m.name, tc.sinks, got, tc.max)
			}
		}
	}
}

// TestZeroLineStaysZero pins that the mechanisms treat the shared line
// the zero backing hands out as read-only.
func TestZeroLineStaysZero(t *testing.T) {
	cfg := platform.Default().WithCores(2)
	w := workload.NewMicrobench(200, workload.DefaultWorkCount, 4)
	must(RunPrefetch(cfg, w, 8, false))
	must(RunSWQueue(cfg, w, 8, false))
	for i, b := range (replay.ZeroBacking{}).ReadLine(0) {
		if b != 0 {
			t.Fatalf("zero line byte %d is %#x after prefetch and swqueue runs", i, b)
		}
	}
}
