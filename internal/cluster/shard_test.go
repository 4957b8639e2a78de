package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The headline invariant of the sharded executor: Shards is an
// execution knob, never a parameter. For every policy × shape and a
// spread of randomized seeds, the summary at any shard count must be
// identical — down to the last float — to the serial driver's.
func TestShardedMatchesSerial(t *testing.T) {
	const seeds = 24
	r := stats.NewRand(0x73686172645F7433) // "shard_t3"
	for _, policy := range Policies() {
		for _, shape := range []string{ShapePoisson, ShapeBursty, ShapeSaturate} {
			for i := 0; i < seeds; i++ {
				seed := r.Uint64()
				cfg := quickCfg()
				cfg.Policy = policy
				cfg.Shape = shape
				cfg.Requests = 150 + i%3*37 // vary batch size across seeds
				cfg.ValueSkew = i%2 == 0
				cfg.Seed = seed

				serial, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %#x serial: %v", policy, shape, seed, err)
				}
				cfg.Shards = 2 + i%3 // 2, 3, 4
				sharded, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %#x shards=%d: %v", policy, shape, seed, cfg.Shards, err)
				}
				if !reflect.DeepEqual(serial, sharded) {
					t.Fatalf("%s/%s seed %#x: shards=%d diverged from serial:\n%+v\n%+v",
						policy, shape, seed, cfg.Shards, serial, sharded)
				}
			}
		}
	}
}

// Shard counts beyond the instance count clamp down rather than spin
// up idle workers, and 0/1 take the serial path; all must agree.
func TestShardCountClamps(t *testing.T) {
	base := quickCfg()
	base.Requests = 200
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, base.Instances, base.Instances + 5, 64} {
		cfg := base
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverged from serial:\n%+v\n%+v", shards, want, got)
		}
	}
}

func TestValidateRejectsNegativeShards(t *testing.T) {
	cfg := quickCfg()
	cfg.Shards = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// Lookahead must say yes exactly for the policies whose pick ignores
// live queue state — the declaration the pre-routing fast path trusts.
func TestLookaheadDeclarations(t *testing.T) {
	want := map[string]bool{
		PolicyRoundRobin:       true,
		PolicyKeyAffinity:      true,
		PolicyLeastOutstanding: false,
		PolicyQueueWeighted:    false,
	}
	for _, policy := range Policies() {
		if Lookahead(policy) != want[policy] {
			t.Fatalf("Lookahead(%s) = %v, want %v", policy, Lookahead(policy), want[policy])
		}
	}
	if Lookahead("no-such-policy") {
		t.Fatal("unknown policy declared lookahead")
	}
}

// preroute and pick must emit the same decision sequence for lookahead
// policies — the equivalence the batched driver rests on.
func TestPrerouteMatchesPick(t *testing.T) {
	for _, policy := range []string{PolicyRoundRobin, PolicyKeyAffinity} {
		cfg := quickCfg()
		cfg.Policy = policy
		cfg = cfg.withDefaults()
		arrivals := generateArrivals(cfg)

		a, _ := newRouter(cfg)
		b, _ := newRouter(cfg)
		insts := make([]*instance, cfg.Instances)
		for i := range insts {
			insts[i] = &instance{}
		}
		for i, arr := range arrivals {
			pre := a.preroute(cfg.Instances, arr.key)
			picked := b.pick(insts, arr.key)
			if pre != picked {
				t.Fatalf("%s arrival %d: preroute %d != pick %d", policy, i, pre, picked)
			}
		}
	}
}

func BenchmarkFleet(b *testing.B) {
	// Three barrier regimes, each at 1/4/8 shards so BENCH_cluster.json
	// can gate both absolute rates and measured speedups:
	//
	//   - mechs: the cluster-mechs table's top cell — least-outstanding
	//     at the 4us device latency, offered past capacity, so most
	//     completions happen in chunky window-sized drain barriers;
	//   - lockstep: least-outstanding near saturation at 1us — the
	//     per-arrival barrier worst case (tens of events per barrier);
	//   - prerouted: round-robin, whole arrival batch behind one
	//     barrier — the policy-lookahead best case.
	for _, bc := range []struct {
		name   string
		policy string
		shape  string
		lat    sim.Time
		rate   float64
	}{
		{"mechs", PolicyLeastOutstanding, ShapePoisson, 4 * sim.Microsecond, 1.8 * 4.82e6},
		{"lockstep", PolicyLeastOutstanding, ShapePoisson, sim.Microsecond, 0.9 * 2 * 9.33e6},
		{"prerouted", PolicyRoundRobin, ShapePoisson, sim.Microsecond, 0.9 * 2 * 9.33e6},
	} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", bc.name, shards), func(b *testing.B) {
				cfg := quickCfg()
				cfg.Base = cfg.Base.WithLatency(bc.lat)
				cfg.Instances = 8
				cfg.Policy = bc.policy
				cfg.Shape = bc.shape
				cfg.ValueSkew = true
				cfg.Requests = 3000
				cfg.RatePerSec = bc.rate // scaled for 8 instances
				cfg.Shards = shards
				b.ReportAllocs()
				b.ResetTimer()
				var events uint64
				for i := 0; i < b.N; i++ {
					sum, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					events += sum.Events
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// TestShardWorkerPanicReachesDriver: a panic inside an engine advanced
// by a shard worker is re-raised on the driver goroutine, where the
// fleet's caller can contain it, instead of killing the process.
func TestShardWorkerPanicReachesDriver(t *testing.T) {
	insts := make([]*instance, 3)
	for i := range insts {
		insts[i] = &instance{env: core.NewEnv(platform.Default(), nil)}
	}
	insts[1].env.Engine().At(5*sim.Nanosecond, func() { panic("engine exploded") })
	p := newShardPool(insts, 2)
	defer p.close()
	got := func() (r any) {
		defer func() { r = recover() }()
		p.advance(10 * sim.Nanosecond)
		return nil
	}()
	if got != "engine exploded" {
		t.Fatalf("driver recovered %v, want the worker's panic", got)
	}
	// The pool survives: the next round runs normally.
	p.advance(20 * sim.Nanosecond)
	for i, in := range insts {
		if now := in.env.Engine().Now(); now != 20*sim.Nanosecond {
			t.Errorf("instance %d at %v after the next round, want 20ns", i, now)
		}
	}
}
