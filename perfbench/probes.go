package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/hostmem"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/runpool"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uthread"
	"repro/internal/workload"
)

// The layer probes time calls into each module's public functions on
// fixed inputs, independent of the workload and its seed, so every
// traced run reports the same per-layer metric set. Each probe opens a
// span in its module's layer; a "probe" span groups each module's
// probes.

// probeLayers are the layers whose self time every traced run reports.
var probeLayers = []string{
	"bench", "pass", "probe", "experiments", "stats", "report", "core", "sim", "uthread",
	"pcie", "mem", "device", "replay", "cpu", "workload", "telemetry", "attrib", "trace",
	"cluster", "runpool", "resultstore", "serve", "http",
}

func runProbes(b *bench, m map[string]metric) error {
	probes := []struct {
		name string
		run  func(b *bench, m map[string]metric) error
	}{
		{"experiments", probePlan},
		{"core", probeCore},
		{"sim", probeSim},
		{"uthread", probeUthread},
		{"model", probeModel},
		{"sinks", probeSinks},
		{"cluster", probeCluster},
		{"runpool", probeRunpool},
		{"resultstore", probeResultstore},
		{"report", probeReport},
		{"serve", probeServe},
	}
	for _, p := range probes {
		prev := b.tr.setGroup("probe." + p.name)
		sp := b.tr.begin("probe", p.name)
		err := p.run(b, m)
		b.tr.end(sp)
		b.tr.setGroup(prev)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// perOp times reps calls of f, each performing the number of
// operations it returns, after one untimed warm-up call. It returns
// the median nanoseconds per operation over the calls, and the
// allocations per operation over all of them.
func perOp(b *bench, layer, name string, reps int, f func() int) (ns, allocs float64) {
	f()
	sp := b.tr.begin(layer, name)
	defer b.tr.end(sp)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	var per []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		n := f()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// probePlan makes one pass of `killerusec -all -quick` (the paper
// plan on the quick suite, one worker, no sinks), times every step and
// checks the text output against the digest recorded at this commit.
func probePlan(b *bench, m map[string]metric) error {
	var it iteration
	p := &planRunner{suite: quickSuite(), prefix: "experiments."}
	// Building the quick BFS workload builds the Kronecker graph the
	// fig10 cells traverse into the executor's memo, as killerusec
	// builds it once per process before the fig10 cells need it.
	quickWorkload("bfs")
	p.iterate(b, &it)
	p.close()
	got := sha([]byte(p.text))
	b.check("sweep-text-digest", got == sweepTextSHA, "text sha256 %s, want %s", got, sweepTextSHA)
	for name, v := range b.extras {
		if strings.HasPrefix(name, "experiments.") {
			m[name] = v
			delete(b.extras, name)
		}
	}
	var missing []string
	for _, e := range quickSuite().PaperPlan() {
		if _, ok := m["experiments.step."+e.ID+"_s"]; !ok {
			missing = append(missing, e.ID)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no step time for %v", missing)
	}
	return nil
}

// coreCell is one fixed mechanism × workload cell.
type coreCell struct {
	mech, wl string
	cores    int
	threads  int
}

// quickWorkload builds the quick suite's version of a workload.
func quickWorkload(name string) core.Workload {
	s := experiments.Quick()
	switch name {
	case "ubench1":
		return workload.NewMicrobench(s.Iterations, workload.DefaultWorkCount, 1)
	case "ubench4":
		return workload.NewMicrobench(s.Iterations, workload.DefaultWorkCount, 4)
	case "memcached":
		return workload.NewMemcached(4096, 4, s.AppLookups, workload.DefaultWorkCount)
	}
	sources := []int{1, 33, 77, 123, 205, 301, 404, 511, 600, 713, 805, 901, 17, 250, 350, 450}
	return experiments.WorkloadSpec{Kind: "bfs", BFSScale: 10, BFSEdgeFactor: 16, BFSSeed: experiments.KroneckerSeed,
		BFSSources: sources, BFSMaxVisits: s.AppLookups / len(sources) * 2, Work: workload.DefaultWorkCount}.Build()
}

// runCell runs one cell on workload w the way the figures do:
// applications under record/replay, microbenchmarks without.
func runCell(cfg platform.Config, c coreCell, w core.Workload) (core.Result, error) {
	replayed := c.wl == "bfs" || c.wl == "memcached"
	cfg = cfg.WithCores(c.cores)
	switch c.mech {
	case "prefetch":
		return core.RunPrefetch(cfg, w, c.threads, replayed)
	case "swqueue":
		return core.RunSWQueue(cfg, w, c.threads, replayed)
	case "kernelq":
		return core.RunKernelQueue(cfg, w, c.threads, false)
	case "ondemand":
		return core.RunOnDemandDevice(cfg, w)
	}
	return core.RunDRAMBaseline(cfg, w)
}

// probeCore times whole mechanism runs. An event is an engine event;
// the DRAM and on-demand runs use the analytic core model, which has
// no engine, so for them an event is one modelled access.
func probeCore(b *bench, m map[string]metric) error {
	var cells []coreCell
	for _, mech := range []string{"prefetch", "swqueue"} {
		for _, wl := range []string{"ubench4", "bfs", "memcached"} {
			cells = append(cells, coreCell{mech, wl, 8, 16})
		}
	}
	for _, mech := range []string{"dram", "ondemand", "kernelq"} {
		cells = append(cells, coreCell{mech, "ubench1", 1, 8})
	}
	for _, c := range cells {
		w := quickWorkload(c.wl)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := b.tr.begin("core", c.mech+"."+c.wl)
		t0 := time.Now()
		r, err := runCell(quickSuite().Base, c, w)
		d := time.Since(t0)
		b.tr.end(sp)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		events := float64(r.Diag.SimEvents)
		if events == 0 {
			events = float64(r.Accesses)
		}
		name := "core." + c.mech + "." + c.wl
		m[name+".ns_per_event"] = metric{float64(d.Nanoseconds()) / events, "ns"}
		m[name+".allocs_per_access"] = metric{float64(m1.Mallocs-m0.Mallocs) / float64(r.Accesses), "count"}
		if c.mech == "prefetch" && c.wl == "bfs" {
			served := float64(r.Diag.ReplayServed)
			m["replay.match_frac"] = metric{served / (served + float64(r.Diag.OnDemand)), "ratio"}
		}
	}
	return nil
}

// probeSim times the event engine's primitives.
func probeSim(b *bench, m map[string]metric) error {
	const reps = 5
	ns, allocs := perOp(b, "sim", "schedule", reps, func() int {
		const events = 1 << 14
		e := sim.NewEngine()
		n := 0
		var fan func()
		fan = func() {
			if n >= events {
				return
			}
			n += 2
			e.After(3*sim.Nanosecond, fan)
			e.After(7*sim.Nanosecond, fan)
		}
		e.At(0, func() { n++; fan() })
		e.Run()
		ops := int(e.Executed())
		e.Recycle()
		return ops
	})
	m["sim.schedule_ns"] = metric{ns, "ns"}
	m["sim.schedule_allocs"] = metric{allocs, "count"}

	ns, allocs = perOp(b, "sim", "proc_switch", reps, func() int {
		const procs, sleeps = 8, 256
		e := sim.NewEngine()
		for i := 0; i < procs; i++ {
			e.Go("core", func(p *sim.Proc) {
				for s := 0; s < sleeps; s++ {
					p.Sleep(sim.Nanosecond)
				}
			})
		}
		e.Run()
		e.Recycle()
		return procs * sleeps
	})
	m["sim.proc_switch_ns"] = metric{ns, "ns"}
	m["sim.proc_switch_allocs"] = metric{allocs, "count"}

	ns, allocs = perOp(b, "sim", "gate", reps, func() int {
		// One gate per access with one waiter, as the model layers use
		// them.
		const gates = 4096
		e := sim.NewEngine()
		done := 0
		release := func() { done++ }
		for i := 0; i < gates; i++ {
			g := e.NewGate()
			g.OnFire(release)
			e.At(sim.Time(i+1)*sim.Nanosecond, g.Fire)
		}
		e.Run()
		e.Recycle()
		return gates
	})
	m["sim.gate_ns"] = metric{ns, "ns"}
	m["sim.gate_allocs"] = metric{allocs, "count"}

	ns, _ = perOp(b, "sim", "wait_timeout", reps, func() int {
		const waits = 256
		e := sim.NewEngine()
		e.Go("poller", func(p *sim.Proc) {
			for w := 0; w < waits; w++ {
				g := e.NewGate()
				if w%2 == 0 {
					e.After(sim.Nanosecond, g.Fire)
					p.WaitTimeout(g, 2*sim.Nanosecond)
				} else {
					p.WaitTimeout(g, sim.Nanosecond)
					e.After(0, g.Fire)
				}
			}
		})
		e.Run()
		e.Recycle()
		return waits
	})
	m["sim.wait_timeout_ns"] = metric{ns, "ns"}

	ns, _ = perOp(b, "sim", "tokenpool", reps, func() int {
		// Four processes contend for two tokens, as cores contend for
		// the chip queue.
		const procs, rounds = 4, 256
		e := sim.NewEngine()
		pool := e.NewTokenPool("chipq", 2)
		for i := 0; i < procs; i++ {
			e.Go("core", func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					p.AcquireToken(pool)
					p.Sleep(sim.Nanosecond)
					pool.Release()
				}
			})
		}
		e.Run()
		e.Recycle()
		return procs * rounds
	})
	m["sim.tokenpool_ns"] = metric{ns, "ns"}
	return nil
}

// probeUthread times Start/Resume round trips of one user-level
// thread making synchronous accesses.
func probeUthread(b *bench, m map[string]metric) error {
	ns, allocs := perOp(b, "uthread", "switch", 5, func() int {
		const accesses = 2048
		t := uthread.New(0, func(api *uthread.API) {
			for i := 0; i < accesses; i++ {
				api.Access(uint64(i) * replay.LineSize)
			}
		})
		line := [][]byte{make([]byte, replay.LineSize)}
		req := t.Start()
		n := 0
		for req.Kind != uthread.KindDone {
			req = t.Resume(line)
			n++
		}
		return n
	})
	m["uthread.switch_ns"] = metric{ns, "ns"}
	m["uthread.switch_allocs"] = metric{allocs, "count"}
	return nil
}

// probeModel times the PCIe link, the DRAM model, the device's MMIO
// read path, the software-queue round trip, a replay-module lookup,
// the analytic on-demand core model and the Kronecker generator.
func probeModel(b *bench, m map[string]metric) error {
	cfg := platform.Default()
	const reps, n = 5, 1024
	// put records <layer>.<op>_ns and _allocs, timed in <layer>.
	put := func(name string, f func() int) {
		layer, _, _ := strings.Cut(name, ".")
		ns, allocs := perOp(b, layer, name, reps, f)
		m[name+"_ns"] = metric{ns, "ns"}
		m[name+"_allocs"] = metric{allocs, "count"}
	}
	put("pcie.tlp", func() int {
		e := sim.NewEngine()
		link := pcie.NewLink(e, cfg)
		done := func() {}
		for i := 0; i < n; i++ {
			link.SendUp(platform.CacheLineBytes, platform.CacheLineBytes, done)
		}
		e.Run()
		e.Recycle()
		return n
	})
	put("mem.dram_read", func() int {
		e := sim.NewEngine()
		d := mem.New(e, cfg.DRAMLatency, cfg.DRAMMaxOutstanding)
		for i := 0; i < n; i++ {
			d.Read(e.NewGate())
		}
		e.Run()
		e.Recycle()
		return n
	})
	put("device.mmio_read", func() int {
		e := sim.NewEngine()
		link := pcie.NewLink(e, cfg)
		dev := device.New(e, cfg, link, mem.New(e, cfg.DRAMLatency, cfg.DRAMMaxOutstanding), replay.ZeroBacking{})
		got := 0
		done := func([]byte) { got++ }
		for i := 0; i < n; i++ {
			dev.MMIORead(0, uint64(i)*replay.LineSize, trace.Span{}, nil, done)
		}
		e.Run()
		e.Recycle()
		return got
	})
	var swqErr error
	put("device.swq_roundtrip", func() int {
		// Push a descriptor, ring the doorbell if the device asked for
		// one, then wait for the completion the device posts through
		// host memory and consume the response line.
		e := sim.NewEngine()
		link := pcie.NewLink(e, cfg)
		dev := device.New(e, cfg, link, mem.New(e, cfg.DRAMLatency, cfg.DRAMMaxOutstanding), replay.ZeroBacking{})
		rq, cq := hostmem.NewRequestQueue(), hostmem.NewCompletionQueue()
		ep := dev.NewSWQEndpoint(0, rq, cq)
		const trips = 256
		done := 0
		e.Go("host", func(p *sim.Proc) {
			for i := 0; i < trips; i++ {
				id := rq.Push(uint64(i)*replay.LineSize, 0, p.Now())
				if rq.DoorbellRequested() {
					rq.ClearDoorbellRequested()
					ep.Doorbell()
				}
				for {
					g := ep.CompletionGate()
					if cq.Len() > 0 {
						break
					}
					p.Wait(g)
				}
				cq.Drain()
				if len(ep.Data(id)) == platform.CacheLineBytes {
					done++
				}
			}
			ep.Stop()
		})
		if _, err := e.RunChecked(); err != nil {
			swqErr = err
		} else if done != trips {
			swqErr = fmt.Errorf("%d of %d round trips returned a line", done, trips)
		}
		e.Recycle()
		return trips
	})
	if swqErr != nil {
		return swqErr
	}

	ns, _ := perOp(b, "replay", "lookup", reps, func() int {
		// In-order lookups with one pair in every four swapped, inside
		// the module's reorder window.
		const lines = 4096
		mod := replay.NewModule(replay.Synthetic(0, lines), cfg.ReplayWindow, 0)
		for i := 0; i < lines; i++ {
			j := i
			if i%8 == 0 && i+1 < lines {
				j = i + 1
			} else if i%8 == 1 {
				j = i - 1
			}
			mod.Lookup(uint64(j) * replay.LineSize)
		}
		return lines
	})
	m["replay.lookup_ns"] = metric{ns, "ns"}

	ns, _ = perOp(b, "cpu", "ondemand", reps, func() int {
		const iters = 4096
		cpu.DeviceOnDemand(cfg, cpu.UniformTrace(iters, 1, workload.DefaultWorkCount))
		return iters
	})
	m["cpu.ondemand_ns_per_iter"] = metric{ns, "ns"}

	ns, _ = perOp(b, "workload", "kronecker", reps, func() int {
		workload.NewKronecker(10, 16, experiments.KroneckerSeed)
		return 1
	})
	m["workload.kronecker_ms"] = metric{ns / 1e6, "ms"}
	return nil
}

// sinkCell is the cell the observability sinks are timed on.
var sinkCell = coreCell{"swqueue", "ubench4", 1, 10}

// probeSinks times one cell with each observability sink on against
// the same cell with all of them off, alternating, and reports each
// sink's median time ratio.
func probeSinks(b *bench, m map[string]metric) error {
	base := quickSuite().Base
	sinks := []struct {
		name string
		cfg  func() (platform.Config, *trace.Recorder)
	}{
		{"core", func() (platform.Config, *trace.Recorder) { return base, nil }},
		{"telemetry", func() (platform.Config, *trace.Recorder) {
			c := base
			c.MetricsWindow = sim.FromNanoseconds(10 * 1e3)
			return c, nil
		}},
		{"attrib", func() (platform.Config, *trace.Recorder) {
			c := base
			c.Attribution = true
			return c, nil
		}},
		{"trace", func() (platform.Config, *trace.Recorder) {
			c := base
			c.Trace = trace.NewRecorder()
			return c, c.Trace
		}},
	}
	const reps = 3
	times := map[string][]float64{}
	for r := 0; r < reps; r++ {
		for _, s := range sinks {
			cfg, rec := s.cfg()
			w := quickWorkload(sinkCell.wl)
			sp := b.tr.begin(s.name, "sink."+s.name)
			t0 := time.Now()
			_, err := runCell(cfg, sinkCell, w)
			d := time.Since(t0)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			times[s.name] = append(times[s.name], d.Seconds())
			if rec != nil && r == 0 {
				var cw countWriter
				if _, err := rec.WriteTo(&cw); err != nil {
					return err
				}
				m["trace.bytes_per_event"] = metric{float64(cw) / float64(rec.Events()), "B"}
			}
		}
	}
	off := median(times["core"])
	for _, s := range sinks[1:] {
		m[s.name+".overhead_ratio"] = metric{median(times[s.name]) / off, "ratio"}
	}
	return nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// probeCluster runs each routing policy on one poisson fleet at 0.9 of
// the measured capacity, serially and with the default shard count.
func probeCluster(b *bench, m map[string]metric) error {
	fr := &fleetRunner{shards: 1}
	run := func(cfg cluster.Config, name string) (float64, uint64, error) {
		sp := b.tr.begin("cluster", name)
		defer b.tr.end(sp)
		t0 := time.Now()
		sum, err := cluster.Run(cfg)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(t0).Seconds(), sum.Events, nil
	}
	capCfg := fr.config("prefetch", cluster.PolicyRoundRobin, cluster.ShapeSaturate, defaultSeed, 0)
	sum, err := cluster.Run(capCfg)
	if err != nil {
		return err
	}
	rate := fleetRho * sum.CompletedPerSec
	shards := experiments.ShardBudget(1)
	for _, policy := range cluster.Policies() {
		cfg := fr.config("prefetch", policy, cluster.ShapePoisson, defaultSeed, rate)
		serial, _, err := run(cfg, policy+".shards1")
		if err != nil {
			return err
		}
		cfg.Shards = shards
		wall, events, err := run(cfg, fmt.Sprintf("%s.shards%d", policy, shards))
		if err != nil {
			return err
		}
		m["cluster."+policy+".events_per_s"] = metric{float64(events) / wall, "1/s"}
		m["cluster."+policy+".shard_speedup"] = metric{serial / wall, "ratio"}
	}
	return nil
}

// probeRunpool times trivial tasks through a one-worker pool, the
// executor's configuration in the sweep.
func probeRunpool(b *bench, m map[string]metric) error {
	ns, _ := perOp(b, "runpool", "task", 5, func() int {
		const tasks = 4096
		p := runpool.New(context.Background(), 1, 2)
		ts := make([]*runpool.Task[int], 0, tasks)
		for i := 0; i < tasks; i++ {
			ts = append(ts, runpool.Submit(p, func() (int, error) { return i, nil }))
		}
		for _, t := range ts {
			t.Wait()
		}
		p.Close()
		return tasks
	})
	m["runpool.task_ns"] = metric{ns, "ns"}
	return nil
}

// probeResultstore times a memory hit, and a disk write and a disk read
// of a cell result that carries a metrics series and an attribution
// summary, as an observed cell does.
func probeResultstore(b *bench, m map[string]metric) error {
	cfg := quickSuite().Base
	cfg.MetricsWindow = sim.FromNanoseconds(10 * 1e3)
	cfg.Attribution = true
	val, err := runCell(cfg, sinkCell, quickWorkload(sinkCell.wl))
	if err != nil {
		return err
	}
	compute := func() (core.Result, error) { return val, nil }

	mem := resultstore.New[core.Result](16)
	mem.Do("k", compute)
	ns, _ := perOp(b, "resultstore", "mem_hit", 5, func() int {
		const hits = 4096
		for i := 0; i < hits; i++ {
			mem.Do("k", compute)
		}
		return hits
	})
	m["resultstore.mem_hit_ns"] = metric{ns, "ns"}

	const entries = 16
	dir := filepath.Join(b.scratch, "resultstore")
	defer os.RemoveAll(dir)
	stamp := experiments.BuildStamp()
	var putErr, getErr error
	round := 0
	put, _ := perOp(b, "resultstore", "disk_put", 3, func() int {
		round++
		s, err := resultstore.OpenStamped[core.Result](dir, stamp, entries)
		if err != nil {
			putErr = err
			return 1
		}
		for i := 0; i < entries; i++ {
			s.Do(resultstore.Key(stamp, fmt.Sprint(round, i)), compute)
		}
		return entries
	})
	get, _ := perOp(b, "resultstore", "disk_get", 3, func() int {
		// A fresh store has an empty memory layer, so every Do reads disk.
		s, err := resultstore.OpenStamped[core.Result](dir, stamp, entries)
		if err != nil {
			getErr = err
			return 1
		}
		for i := 0; i < entries; i++ {
			if _, err := s.Do(resultstore.Key(stamp, fmt.Sprint(1, i)), func() (core.Result, error) {
				return core.Result{}, fmt.Errorf("disk miss")
			}); err != nil {
				getErr = err
			}
		}
		return entries
	})
	if putErr != nil || getErr != nil {
		return fmt.Errorf("disk layer: %v %v", putErr, getErr)
	}
	m["resultstore.disk_put_ms"] = metric{put / 1e6, "ms"}
	m["resultstore.disk_get_ms"] = metric{get / 1e6, "ms"}
	return nil
}

// probeReport decodes, validates and re-encodes the committed quick
// baseline report.
func probeReport(b *bench, m map[string]metric) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var rep report.Report
	var derr, verr, eerr error
	var out []byte
	dec, _ := perOp(b, "report", "decode", 3, func() int {
		rep = report.Report{}
		derr = json.Unmarshal(raw, &rep)
		return 1
	})
	val, _ := perOp(b, "report", "validate", 3, func() int {
		verr = rep.Validate()
		return 1
	})
	enc, _ := perOp(b, "report", "encode", 3, func() int {
		out, eerr = rep.Encode()
		return 1
	})
	if derr != nil || verr != nil || eerr != nil {
		return fmt.Errorf("baseline report: %v %v %v", derr, verr, eerr)
	}
	m["report.decode_ms"] = metric{dec / 1e6, "ms"}
	m["report.validate_ms"] = metric{val / 1e6, "ms"}
	m["report.encode_ms"] = metric{enc / 1e6, "ms"}
	m["report.bytes"] = metric{float64(len(out)), "B"}
	return nil
}

// probeServe serves a fixed set of six jobs, three requests each sent
// twice, from a fresh server, and reports the median of each step of a
// job and the fraction of cells answered from cache.
func probeServe(b *bench, m map[string]metric) error {
	r := &serveRunner{
		pool: []serve.RunRequest{
			{Suite: "quick", Experiments: []string{"2"}, Iterations: 100},
			{Suite: "quick", Experiments: []string{"lfb"}, Iterations: 100},
			{Suite: "quick", Experiments: []string{"3"}, Iterations: 100, Attribution: true},
		},
		seq:      []int{0, 0, 1, 1, 2, 2},
		parallel: runtime.NumCPU(),
		client:   newClient(),
		name:     "probe-serve",
	}
	if err := r.boot(b); err != nil {
		return err
	}
	var it iteration
	r.iterate(b, &it)
	if err := r.shutdown(); err != nil {
		return err
	}
	var cached, computed float64
	for _, j := range r.jobs {
		if j.sha == "" {
			return fmt.Errorf("a probe job failed")
		}
		cached += float64(j.cached)
		computed += float64(j.computed)
	}
	for name, v := range r.steps() {
		m["serve."+name] = metric{v, "ms"}
	}
	m["resultstore.hit_frac"] = metric{cached / (cached + computed), "ratio"}
	return nil
}
