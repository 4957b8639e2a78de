package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// fleetSHA digests the JSON of every fleet summary of one pass at the
// default seed (engine event counts are not part of a summary's JSON).
const fleetSHA = "d8fbdfccfa18c91cb3ed3989a5ff97c452b4452453f687b537d2ff628814ea09"

// fleetRho is the offered load of the poisson and bursty cells, as a
// fraction of the capacity the saturate cell of the same backend and
// policy measured.
const fleetRho = 0.9

// fleetRunner sweeps the grid the cluster plan sweeps: every routing
// policy under every arrival shape, for both paper backends, with the
// quick plan's fleet size and the benchmark seed as the fleet seed.
type fleetRunner struct {
	shards int
	first  []*stats.FleetSummary // the first pass, which later passes must repeat exactly
	last   []*stats.FleetSummary
	passes int
}

// setupFleet runs the grid's first cell once as a warm-up and checks
// it: the passes then do not time a process's first cluster runs, and
// a set-up is CPU work whose median is steady.
func setupFleet(b *bench) (runner, error) {
	r := &fleetRunner{shards: quickSuite().FleetShards}
	sum, err := cluster.Run(r.config("prefetch", cluster.PolicyRoundRobin, cluster.ShapeSaturate, b.seed, 0))
	if err == nil {
		err = fleetInvariants(sum)
	}
	return r, err
}

// config mirrors the quick suite's fleet cell (experiments.fleetSpec).
func (r *fleetRunner) config(backend, policy, shape string, seed int64, rate float64) cluster.Config {
	return cluster.Config{
		Base:       quickSuite().Base,
		Instances:  4,
		Mech:       backend,
		Policy:     policy,
		Shape:      shape,
		Workers:    16,
		ValueLines: 4,
		WorkInstr:  100,
		Items:      4096,
		ValueSkew:  true,
		Requests:   3000,
		RatePerSec: rate,
		Rho:        fleetRho,
		Seed:       uint64(seed),
		Shards:     r.shards,
	}
}

func (r *fleetRunner) iterate(b *bench, it *iteration) {
	r.last = r.last[:0]
	for _, backend := range []string{"prefetch", "swqueue"} {
		for _, policy := range cluster.Policies() {
			capacity := 0.0
			for _, shape := range []string{cluster.ShapeSaturate, cluster.ShapePoisson, cluster.ShapeBursty} {
				cfg := r.config(backend, policy, shape, b.seed, fleetRho*capacity)
				sp := b.tr.begin("cluster", "run."+backend+"."+policy+"."+shape)
				t0 := time.Now()
				sum, err := cluster.Run(cfg)
				d := time.Since(t0)
				b.tr.end(sp)
				b.op(err)
				if err != nil {
					continue
				}
				if shape == cluster.ShapeSaturate {
					capacity = sum.CompletedPerSec
				}
				it.jobs = append(it.jobs, d)
				if r.passes > 0 {
					it.repeats = append(it.repeats, d)
				}
				it.cells++
				it.events += float64(sum.Events)
				r.last = append(r.last, sum)
				if b.tr != nil {
					key := "workload.cluster." + policy
					b.extras[key+".events"] = metric{b.extras[key+".events"].Value + float64(sum.Events), "count"}
					b.extras[key+".busy_s"] = metric{b.extras[key+".busy_s"].Value + d.Seconds(), "s"}
				}
			}
		}
	}
	r.passes++
}

func (r *fleetRunner) after(b *bench, it *iteration) {
	for _, s := range r.last {
		err := fleetInvariants(s)
		b.check("fleet-invariants", err == nil, "%s/%s/%s: %v", s.Mech, s.Policy, s.Shape, err)
	}
	if r.first == nil {
		r.first = append([]*stats.FleetSummary(nil), r.last...)
		if b.seed == defaultSeed {
			js, err := json.Marshal(r.last)
			got := sha(js)
			b.check("fleet-digest", err == nil && got == fleetSHA, "sha256 %s, want %s (%v)", got, fleetSHA, err)
		}
		return
	}
	b.check("fleet-repeatable", reflect.DeepEqual(r.first, r.last), "a repeated pass over the same seed changed its summaries")
}

// fleetInvariants are the instance-sum checks the report layer applies
// on read: instances add up to the fleet, nothing completes that did
// not arrive, and the run completed work.
func fleetInvariants(s *stats.FleetSummary) error {
	if len(s.Instances) == 0 {
		return fmt.Errorf("no instances")
	}
	var arrived, completed uint64
	for i, in := range s.Instances {
		if in.Completed > in.Arrived {
			return fmt.Errorf("instance %d completed %d > arrived %d", i, in.Completed, in.Arrived)
		}
		if in.SaturatedWindows > in.Windows {
			return fmt.Errorf("instance %d saturated %d > windows %d", i, in.SaturatedWindows, in.Windows)
		}
		arrived += in.Arrived
		completed += in.Completed
	}
	if arrived != s.Arrived || completed != s.Completed {
		return fmt.Errorf("instance sums %d/%d != fleet totals %d/%d", arrived, completed, s.Arrived, s.Completed)
	}
	if s.Completed == 0 || s.Events == 0 {
		return fmt.Errorf("completed %d requests in %d events", s.Completed, s.Events)
	}
	return nil
}

func (r *fleetRunner) close() {}
