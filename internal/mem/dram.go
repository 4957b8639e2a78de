// Package mem models the host DRAM system: the normalization target of
// every experiment in the paper, and the memory that the device's
// request fetchers DMA into and out of on the software-managed-queue
// path.
//
// The model is intentionally simple — a fixed loaded latency with a
// chip-level cap on simultaneous accesses — because the paper uses DRAM
// only as a baseline and explicitly verified that its outstanding-access
// limit (>= 48) never binds in any experiment (§V-B).
package mem

import (
	"repro/internal/sim"
)

// DRAM is the host memory system.
type DRAM struct {
	eng     *sim.Engine
	latency sim.Time
	slots   *sim.TokenPool

	// inflight holds what each unfinished access signals on completion,
	// in request order from head on. Slots are granted in request order
	// and every access takes the same latency, so accesses also start
	// and finish in that order: one pair of callbacks bound at creation
	// serves every access, and an access allocates nothing.
	inflight []completion
	head     int
	startFn  func() // d.start
	finishFn func() // d.finish

	reads  uint64
	writes uint64
}

// completion is what one access signals when it finishes: a gate to
// fire, or a single callback to schedule as the one waiter such a gate
// would have had.
type completion struct {
	gate *sim.Gate
	fn   func()
}

// New creates a DRAM model with the given loaded access latency and
// chip-level outstanding-access limit.
func New(eng *sim.Engine, latency sim.Time, maxOutstanding int) *DRAM {
	d := &DRAM{
		eng:     eng,
		latency: latency,
		slots:   eng.NewTokenPool("dram", maxOutstanding),
	}
	d.startFn, d.finishFn = d.start, d.finish
	return d
}

// Latency returns the loaded access latency.
func (d *DRAM) Latency() sim.Time { return d.latency }

// Reads returns the number of read accesses completed or in flight.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of write accesses completed or in flight.
func (d *DRAM) Writes() uint64 { return d.writes }

// MaxOutstandingSeen returns the peak simultaneous occupancy observed,
// used to check that DRAM never becomes the bottleneck (§V-B).
func (d *DRAM) MaxOutstandingSeen() int { return d.slots.MaxInUse() }

// Read performs an asynchronous read; done fires when the data is
// available. Waits for a free slot first if the chip-level limit is
// reached.
func (d *DRAM) Read(done *sim.Gate) {
	d.reads++
	d.access(completion{gate: done})
}

// ReadThen is Read with a single callback instead of a gate: fn runs as
// an engine event at the instant Read would fire its gate, exactly as
// that gate's only OnFire waiter would.
func (d *DRAM) ReadThen(fn func()) {
	d.reads++
	d.access(completion{fn: fn})
}

// Write performs an asynchronous write; done fires when it completes.
// Device-initiated response-data and completion-queue writes land here
// on the software-managed-queue path.
func (d *DRAM) Write(done *sim.Gate) {
	d.writes++
	d.access(completion{gate: done})
}

// WriteThen is Write with a single callback, as ReadThen is Read's.
func (d *DRAM) WriteThen(fn func()) {
	d.writes++
	d.access(completion{fn: fn})
}

func (d *DRAM) access(c completion) {
	if len(d.inflight) == cap(d.inflight) && d.head > 0 {
		n := copy(d.inflight, d.inflight[d.head:])
		clear(d.inflight[n:])
		d.inflight = d.inflight[:n]
		d.head = 0
	}
	d.inflight = append(d.inflight, c)
	d.slots.OnAcquire(d.startFn)
}

// start runs when an access is granted its slot.
func (d *DRAM) start() { d.eng.After(d.latency, d.finishFn) }

// finish completes the oldest access: its slot goes to the next waiter,
// then its gate fires or its callback is scheduled.
func (d *DRAM) finish() {
	c := d.inflight[d.head]
	d.inflight[d.head] = completion{}
	d.head++
	if d.head == len(d.inflight) {
		d.inflight = d.inflight[:0]
		d.head = 0
	}
	d.slots.Release()
	if c.gate != nil {
		c.gate.Fire()
	} else {
		d.eng.At(d.eng.Now(), c.fn)
	}
}
