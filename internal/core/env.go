package core

import (
	"fmt"

	"repro/internal/attrib"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pcie"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Env is one assembled simulation platform: engine, DRAM, PCIe link,
// chip-level MMIO queue, per-core LFB pools, and the device emulator.
type Env struct {
	eng      *sim.Engine
	cfg      platform.Config
	link     *pcie.Link
	chip     *sim.TokenPool
	dram     *mem.DRAM
	dev      *device.Device
	lfb      []*sim.TokenPool
	storeBuf []*sim.TokenPool
	caches   []*cache.Cache // per-core device-line caches; nil entries when disabled

	// faults is nil unless the config enables injection; hosts take the
	// recovery code paths only when it is non-nil, which keeps
	// zero-rate runs bit-identical to fault-free ones.
	faults *fault.Injector

	// tr is nil unless the config attaches a trace recorder; the
	// mechanisms record access spans only when it is non-nil, mirroring
	// the faults idiom so disabled tracing costs one nil check.
	tr     *trace.Run
	trCore []trace.Track // per-core access-span tracks

	// rec is nil unless the config enables the flight recorder
	// (MetricsWindow > 0); like tr, disabled telemetry costs the
	// mechanisms exactly one nil check per event.
	rec *telemetry.Recorder

	// at is nil unless the config enables latency attribution; the
	// mechanisms open a per-access phase ledger only when it is
	// non-nil, and a nil probe hands out nil ledgers whose marks are
	// no-ops, so disabled attribution costs one nil check per access.
	at *attrib.Probe

	// Pre-rendered per-core counter-track names, so the state-change
	// hooks never format strings on the hot path.
	lfbName, sqName, cqName, runnableName []string
}

// openLedger opens an access's attribution ledger at at (nil when
// attribution is off). A fault-free access keeps it in slot, storage
// embedded in the recycled per-access record, which is reused only
// after every event that can reach the ledger has run (DESIGN.md §16).
// Under fault injection, or with no slot, the ledger is a fresh heap
// one: a duplicated or straggling response may still mark it after its
// record is reused, and only a closed ledger ignores that.
func (e *Env) openLedger(slot *attrib.Access, at sim.Time) *attrib.Access {
	if slot == nil || e.faults != nil {
		return e.at.Open(at)
	}
	return e.at.OpenIn(slot, at)
}

func NewEnv(cfg platform.Config, backing replay.Backing) *Env {
	eng := sim.NewEngine()
	link := pcie.NewLink(eng, cfg)
	dram := mem.New(eng, cfg.DRAMLatency, cfg.DRAMMaxOutstanding)
	e := &Env{
		eng:  eng,
		cfg:  cfg,
		link: link,
		chip: pcie.NewChipQueue(eng, cfg),
		dram: dram,
		dev:  device.New(eng, cfg, link, dram, backing),
		lfb:  make([]*sim.TokenPool, cfg.Cores),
	}
	e.faults = fault.NewInjector(cfg.Faults)
	link.SetFaultInjector(e.faults)
	e.dev.SetFaultInjector(e.faults)
	e.storeBuf = make([]*sim.TokenPool, cfg.Cores)
	e.caches = make([]*cache.Cache, cfg.Cores)
	for i := range e.lfb {
		e.lfb[i] = eng.NewTokenPool("lfb", cfg.LFBPerCore)
		e.storeBuf[i] = eng.NewTokenPool("storebuf", cfg.StoreBufferEntries)
		if cfg.DeviceCacheLines > 0 {
			e.caches[i] = cache.New(cfg.DeviceCacheLines, cfg.DeviceCacheWays)
		}
	}
	return e
}

// invalidateAll performs the write-invalidate coherence action for a
// device line in every core's cache (§V-C: with the memory-mapped
// interface "the device data is stored in hardware caches and kept
// coherent across cores in the event of a write").
func (e *Env) invalidateAll(addr uint64) {
	for _, c := range e.caches {
		if c != nil {
			c.Invalidate(addr)
		}
	}
}

// counters accumulates per-run totals across all cores.
type counters struct {
	accesses  int
	writes    int
	workInstr int64
	switches  uint64
	finish    sim.Time // time the last core finished

	// per-access host-observed latency samples (issue to data-usable)
	// in a bounded log-bucketed histogram, for the percentile
	// diagnostics; memory is bounded by the latency range, not the
	// access count
	latencies *stats.Histogram

	// recovery accounting (fault-injection runs only)
	retries   uint64 // accesses re-issued after a timeout
	timeouts  uint64 // access timeouts that fired
	abandoned uint64 // accesses given up after the retry budget

	// software-queue path only
	fetchBursts uint64
	emptyBursts uint64
	maxRQDepth  int

	liveCores int
	samples   []OccupancySample
}

// OccupancySample is one point of the optional occupancy timeline.
type OccupancySample struct {
	At        sim.Time
	LFBInUse  int     // total across cores
	ChipInUse int     // chip-level MMIO queue occupancy
	UpUtil    float64 // upstream link utilization so far
}

func (c *counters) recordLatency(l sim.Time) {
	if c.latencies == nil {
		c.latencies = stats.NewHistogram()
	}
	c.latencies.Record(int64(l))
}

func (c *counters) coreFinished(at sim.Time) {
	if at > c.finish {
		c.finish = at
	}
}

// Diagnostics exposes the run's internal occupancy and traffic
// statistics; experiments use them for figure notes and tests use them
// to pin the bottleneck mechanics down.
type Diagnostics struct {
	MaxChipQueue   int     // peak occupancy of the 14-entry shared queue
	ChipStalls     uint64  // requests that waited for a chip-queue slot
	MaxLFB         int     // peak per-core LFB occupancy (max over cores)
	LFBStalls      uint64  // prefetches that stalled on a full LFB pool
	Switches       uint64  // user-level context switches
	UpstreamUseful float64 // device->host useful-bytes fraction
	UpstreamGBps   float64 // device->host useful bandwidth, GB/s
	ReplayServed   uint64
	OnDemand       uint64
	FetchBursts    uint64 // SWQ: descriptor DMA bursts issued
	EmptyBursts    uint64 // SWQ: bursts that found no descriptors
	MaxRQDepth     int    // SWQ: request-queue high-water mark
	Writes         int    // posted writes issued (§VII extension)
	CacheHits      uint64 // device-line cache hits (locality extension)
	CacheHitRate   float64

	// Host-observed per-access latency percentiles, in nanoseconds:
	// from request issue/submission until the data is usable by the
	// thread, computed from the bounded log-bucketed histogram (within
	// ~0.4% of the exact sample percentiles). Zero if no accesses were
	// sampled.
	AccessP50Ns  float64
	AccessP99Ns  float64
	AccessP999Ns float64

	// Time-weighted mean occupancy of the paper's bottleneck queues:
	// LFB slots summed across cores, and the chip-level MMIO queue.
	MeanLFBOccupancy  float64
	MeanChipOccupancy float64

	// Simulation-effort and trace-overhead accounting: engine events
	// executed, events left pending after the run (non-zero only on an
	// aborted run), and trace events this run recorded (zero with
	// tracing disabled).
	SimEvents   uint64
	SimPending  int
	TraceEvents uint64

	// Recovery accounting under fault injection: host-side retries,
	// timeouts, and abandoned accesses, plus the faults the injector
	// actually delivered, by layer. All zero in fault-free runs.
	Retries   uint64
	Timeouts  uint64
	Abandoned uint64
	Faults    fault.Counters

	// Timeline holds the occupancy samples when Config.SamplePeriod is
	// set.
	Timeline []OccupancySample
}

func (e *Env) diagnostics(c *counters) Diagnostics {
	d := Diagnostics{
		MaxChipQueue: e.chip.MaxInUse(),
		ChipStalls:   e.chip.Stalls(),
		Switches:     c.switches,
		ReplayServed: e.dev.ReplayServed(),
		OnDemand:     e.dev.OnDemandServed(),
		FetchBursts:  c.fetchBursts,
		EmptyBursts:  c.emptyBursts,
		MaxRQDepth:   c.maxRQDepth,
	}
	for _, pool := range e.lfb {
		if pool.MaxInUse() > d.MaxLFB {
			d.MaxLFB = pool.MaxInUse()
		}
		d.LFBStalls += pool.Stalls()
		d.MeanLFBOccupancy += pool.MeanOccupancy()
	}
	d.MeanChipOccupancy = e.chip.MeanOccupancy()
	d.SimEvents = e.eng.Executed()
	d.SimPending = e.eng.Pending()
	d.TraceEvents = e.tr.Events()
	d.Writes = c.writes
	var hits, lookups uint64
	for _, cc := range e.caches {
		if cc != nil {
			hits += cc.Hits()
			lookups += cc.Hits() + cc.Misses()
		}
	}
	d.CacheHits = hits
	if lookups > 0 {
		d.CacheHitRate = float64(hits) / float64(lookups)
	}
	up := e.link.Upstream()
	d.UpstreamUseful = up.UsefulFraction()
	if c.finish > 0 {
		d.UpstreamGBps = float64(up.UsefulBytes) / c.finish.Seconds() / 1e9
	}
	d.AccessP50Ns = sim.Time(c.latencies.Quantile(0.50)).Nanoseconds()
	d.AccessP99Ns = sim.Time(c.latencies.Quantile(0.99)).Nanoseconds()
	d.AccessP999Ns = sim.Time(c.latencies.Quantile(0.999)).Nanoseconds()
	d.Retries = c.retries
	d.Timeouts = c.timeouts
	d.Abandoned = c.abandoned
	d.Faults = e.faults.Counters()
	d.Timeline = c.samples
	return d
}

// startSampler arms the periodic occupancy sampler; it re-arms itself
// while any core is still running, so the simulation still drains.
func (e *Env) startSampler(c *counters) {
	if e.cfg.SamplePeriod <= 0 {
		return
	}
	var tick func()
	tick = func() {
		lfb := 0
		for _, pool := range e.lfb {
			lfb += pool.InUse()
		}
		c.samples = append(c.samples, OccupancySample{
			At:        e.eng.Now(),
			LFBInUse:  lfb,
			ChipInUse: e.chip.InUse(),
			UpUtil:    e.link.Upstream().Utilization,
		})
		if c.liveCores > 0 {
			e.eng.After(e.cfg.SamplePeriod, tick)
		}
	}
	e.eng.After(e.cfg.SamplePeriod, tick)
}

// startTrace attaches the environment to the config's trace recorder
// (a no-op when tracing is disabled): one trace run labeled for this
// measurement, one access-span track per core, TLP timelines on both
// link directions, and occupancy counter tracks for every bottleneck
// queue. The hooks only record state the simulation already computes —
// they never schedule events, so traced and untraced runs are
// timing-identical.
func (e *Env) startTrace(label string) {
	if e.cfg.Trace == nil {
		return
	}
	e.tr = e.cfg.Trace.NewRun(label)
	cores := e.cfg.Cores
	e.trCore = make([]trace.Track, cores)
	for i := 0; i < cores; i++ {
		e.trCore[i] = e.tr.NewTrack(fmt.Sprintf("core%d", i))
	}
	e.link.SetTrace(e.tr.NewTrack("pcie-down"), e.tr.NewTrack("pcie-up"))

	// Occupancy counter tracks, sampled on state change. Names are
	// pre-rendered so the hot-path hooks never call fmt.
	e.lfbName = make([]string, cores)
	e.sqName = make([]string, cores)
	e.cqName = make([]string, cores)
	e.runnableName = make([]string, cores)
	for i := 0; i < cores; i++ {
		e.lfbName[i] = fmt.Sprintf("lfb/core%d", i)
		e.sqName[i] = fmt.Sprintf("sq/core%d", i)
		e.cqName[i] = fmt.Sprintf("cq/core%d", i)
		e.runnableName[i] = fmt.Sprintf("runnable/core%d", i)
		e.tr.Counter(0, e.lfbName[i], 0)
		e.tr.Counter(0, e.sqName[i], 0)
		e.tr.Counter(0, e.cqName[i], 0)
		e.tr.Counter(0, e.runnableName[i], 0)
	}
	e.tr.Counter(0, "chipq", 0)
}

// startRecorder attaches the flight recorder when the config enables it
// (MetricsWindow > 0). The recorder only aggregates values the
// simulation already computes and never schedules events, so recorded
// and unrecorded runs are timing-identical.
func (e *Env) startRecorder(label string) {
	if e.cfg.MetricsWindow <= 0 {
		return
	}
	e.rec = telemetry.NewRecorder(label, e.cfg.MetricsWindow, e.cfg.MetricsMaxWindows, e.cfg.MetricsSink)
}

// installPoolHooks installs the single-slot state-change observers on
// the LFB pools and the chip-level queue, fanning out to whichever of
// the trace run and the flight recorder are attached. The trace wants
// absolute occupancy; the recorder wants deltas, converted with a
// closure-captured previous value per pool.
func (e *Env) installPoolHooks() {
	if e.tr == nil && e.rec == nil {
		return
	}
	for i := range e.lfb {
		i := i
		prev := 0
		e.lfb[i].SetOnChange(func(inUse int) {
			if e.tr != nil {
				e.tr.Counter(e.eng.Now(), e.lfbName[i], inUse)
			}
			if e.rec != nil {
				e.rec.GaugeAdd(telemetry.GaugeLFB, e.eng.Now(), inUse-prev)
			}
			prev = inUse
		})
	}
	prevChip := 0
	e.chip.SetOnChange(func(inUse int) {
		if e.tr != nil {
			e.tr.Counter(e.eng.Now(), "chipq", inUse)
		}
		if e.rec != nil {
			e.rec.GaugeAdd(telemetry.GaugeChip, e.eng.Now(), inUse-prevChip)
		}
		prevChip = inUse
	})
}

// startAttrib attaches the latency-attribution probe when the config
// enables it. Like the trace and recorder layers it only observes
// timestamps the simulation already computes and never schedules
// events, so attributed and unattributed runs are timing-identical.
// When the flight recorder is also on, every closed ledger feeds the
// recorder's per-window phase columns.
func (e *Env) startAttrib(label string) {
	if !e.cfg.Attribution {
		return
	}
	e.at = attrib.NewProbe(label)
	if e.rec != nil {
		e.rec.SetPhaseNames(attrib.Names())
		e.at.SetOnClose(func(end sim.Time, ph *[attrib.NumPhases]int64) {
			e.rec.PhaseSample(end, ph[:])
		})
	}
}

// startObservability attaches every enabled observability layer — the
// Perfetto trace run, the flight recorder, the attribution probe, and
// the shared pool hooks that feed them — for one measured run.
func (e *Env) startObservability(label string) {
	e.startTrace(label)
	e.startRecorder(label)
	e.startAttrib(label)
	e.installPoolHooks()
}
