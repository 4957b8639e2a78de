package device

import (
	"repro/internal/attrib"
	"repro/internal/hostmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SWQEndpoint is the device side of the application-managed
// software-queue interface for one core (§IV-A, Software-Managed Queue
// Design): a doorbell register, a request fetcher that burst-reads
// descriptors from host memory, and the delay-module response path that
// writes response data and completion entries back into host memory.
type SWQEndpoint struct {
	dev    *Device
	coreID int
	rq     *hostmem.RequestQueue
	cq     *hostmem.CompletionQueue

	doorbell *sim.Gate // armed while the fetcher is parked
	step     *sim.Gate // the fetcher's current DMA step, re-armed before each
	stepFire func()    // step.Fire, bound once

	// Completion notification: notify fires and re-arms on every posted
	// completion; watch is the gate CompletionGate last handed out,
	// until a completion fires it.
	notify *sim.Gate
	watch  *sim.Gate

	data map[uint64][]byte // response lines landed in host memory, by descriptor ID

	ringFn, flagSentFn func() // e.ring, e.flagSent, bound once
	opFree             []*dmaOp

	fetchBursts  uint64 // DMA burst reads issued
	emptyBursts  uint64 // bursts that returned no descriptors
	doorbellHits uint64 // doorbell MMIO writes received

	stopped bool // fetcher shutdown requested (end of run)
}

// NewSWQEndpoint creates the endpoint for coreID over the given
// host-memory queues and starts its request fetcher.
func (d *Device) NewSWQEndpoint(coreID int, rq *hostmem.RequestQueue, cq *hostmem.CompletionQueue) *SWQEndpoint {
	e := &SWQEndpoint{
		dev:      d,
		coreID:   coreID,
		rq:       rq,
		cq:       cq,
		doorbell: d.eng.NewGate(),
		step:     d.eng.NewGate(),
		notify:   d.eng.NewGate(),
		data:     map[uint64][]byte{},
	}
	e.stepFire = e.step.Fire
	e.ringFn, e.flagSentFn = e.ring, e.flagSent
	d.eng.Go("fetcher", e.runFetcher)
	return e
}

// Doorbell delivers the host's MMIO doorbell write to the device,
// restarting the parked fetcher when the write arrives. The host-side
// CPU cost of the uncached write is charged by the caller.
func (e *SWQEndpoint) Doorbell() {
	e.dev.link.SendDown(0, 0, e.ringFn)
}

// ring runs when a doorbell write arrives at the device.
func (e *SWQEndpoint) ring() {
	if e.dev.inj.DropDoorbell() {
		// Write lost at the device: the fetcher stays parked until the
		// host's timeout re-rings.
		return
	}
	e.doorbellHits++
	if !e.doorbell.Fired() {
		e.doorbell.Fire()
	}
}

// CompletionGate returns a gate that fires the next time a completion is
// posted. Callers must obtain the gate before checking the completion
// queue to avoid a lost wakeup. A gate it hands out stays fired, so
// each completion it watches costs a new gate; Notify costs none.
func (e *SWQEndpoint) CompletionGate() *sim.Gate {
	if e.watch == nil {
		e.watch = e.dev.eng.NewGate()
	}
	return e.watch
}

// Notify returns the endpoint's completion notifier: one gate that
// fires on every posted completion and re-arms at once, so a wait on
// it always lasts until the next post. A caller that finds the
// completion queue empty and waits in the same process step cannot
// miss a completion.
func (e *SWQEndpoint) Notify() *sim.Gate { return e.notify }

// Data returns the response line for a completed descriptor, consuming
// it (it models the host reading the line from the descriptor's target
// address).
func (e *SWQEndpoint) Data(id uint64) []byte {
	line := e.data[id]
	delete(e.data, id)
	return line
}

// FetchBursts returns the number of DMA burst reads issued.
func (e *SWQEndpoint) FetchBursts() uint64 { return e.fetchBursts }

// EmptyBursts returns how many bursts found no descriptors.
func (e *SWQEndpoint) EmptyBursts() uint64 { return e.emptyBursts }

// DoorbellHits returns how many doorbell writes the device received.
func (e *SWQEndpoint) DoorbellHits() uint64 { return e.doorbellHits }

// Stop shuts the request fetcher down after it drains its current work;
// the harness calls it at the end of a measured run so the fetcher's
// simulated process exits.
func (e *SWQEndpoint) Stop() {
	e.stopped = true
	if !e.doorbell.Fired() {
		e.doorbell.Fire()
	}
}

// runFetcher is the request fetcher state machine. Parked until a
// doorbell arrives, it then burst-reads descriptors from host memory and
// keeps reading "so long as at least one new descriptor is retrieved
// during the last burst" (§IV-A). When a burst comes back empty it sets
// the in-memory doorbell-request flag, performs one final burst read to
// close the race with a host that submitted after the empty burst but
// before the flag landed, and parks again.
func (e *SWQEndpoint) runFetcher(p *sim.Proc) {
	for {
		p.Wait(e.doorbell)
		if e.stopped {
			return
		}
		e.doorbell.Reset() // re-arm for the next park

		for {
			burst := e.fetchBurst(p)
			if len(burst) > 0 {
				e.process(burst)
				continue
			}
			// Empty burst: publish the doorbell-request flag via a DMA
			// write, then re-check once.
			e.writeDoorbellFlag(p)
			final := e.fetchBurst(p)
			if len(final) > 0 {
				e.process(final)
				continue
			}
			break
		}
	}
}

// fetchBurst performs one DMA burst read of up to FetchBurst descriptors
// from the host request queue: an upstream read-request TLP, the host
// memory access, and the downstream completion TLP carrying the
// descriptors. The result is valid until the next fetchBurst.
func (e *SWQEndpoint) fetchBurst(p *sim.Proc) []hostmem.Descriptor {
	e.fetchBursts++
	e.step.Reset()
	e.dev.link.SendUp(0, 0, e.stepFire)
	p.Wait(e.step)

	e.step.Reset()
	e.dev.hostDRAM.Read(e.step)
	p.Wait(e.step)
	burst := e.rq.PopBurst(e.dev.cfg.FetchBurst)
	if len(burst) == 0 {
		e.emptyBursts++
	}

	payload := len(burst) * e.dev.cfg.DescriptorBytes
	e.step.Reset()
	e.dev.link.SendDown(payload, 0, e.stepFire)
	p.Wait(e.step)
	return burst
}

// writeDoorbellFlag performs the small DMA write that sets the
// doorbell-request flag in host memory.
func (e *SWQEndpoint) writeDoorbellFlag(p *sim.Proc) {
	e.step.Reset()
	e.dev.link.SendUp(8, 0, e.flagSentFn)
	p.Wait(e.step)
	e.rq.SetDoorbellRequested()
}

// flagSent runs when the doorbell-flag write reaches host memory's
// controller; the fetcher's step completes with the DRAM write.
func (e *SWQEndpoint) flagSent() { e.dev.hostDRAM.Write(e.step) }

// process forwards fetched descriptors to the replay module and
// schedules the delay-module response path for each: a response-data
// write into the descriptor's target address followed — strictly after,
// as the protocol requires (§IV-A) — by a completion-queue write.
// Processing is asynchronous: the fetcher immediately continues with its
// next burst while responses are in flight.
func (e *SWQEndpoint) process(burst []hostmem.Descriptor) {
	arrival := e.dev.eng.Now()
	for _, desc := range burst {
		if desc.Write {
			e.processWrite(desc)
			continue
		}
		desc.Span.Point(arrival, "desc-fetched")
		// Time from submission to the fetch burst landing here is
		// descriptor queue wait (doorbell, park, burst DMA).
		desc.Attrib.To(attrib.PhaseQueueWait, arrival)
		data, fromReplay := e.dev.serve(e.coreID, desc.Addr)
		if fromReplay {
			desc.Span.Point(arrival, "serve-replay")
		} else {
			desc.Span.Point(arrival, "serve-ondemand")
		}
		lat := e.dev.effectiveLatency()
		if f, ok := e.dev.inj.Straggle(); ok {
			lat = sim.Time(float64(lat) * f)
			desc.Span.Point(arrival, "fault-straggle")
		}
		// The delay module times responses off the descriptor's
		// submission timestamp, so the emulated latency is measured
		// from the host's enqueue — but a response can never leave
		// before its descriptor has been fetched.
		sendAt := desc.Submitted + e.dev.cfg.InternalDelayFor(lat)
		if sendAt < arrival {
			sendAt = arrival
		}
		if !fromReplay {
			earliest := arrival + OnDemandDRAMLatency
			if earliest > sendAt {
				sendAt = earliest
			}
		}
		if e.dev.inj.DropCompletion() {
			// Both writes lost; the host's descriptor timeout resubmits.
			desc.Span.Point(arrival, "fault-drop")
			continue
		}
		desc.Span.Point(sendAt, "resp-sent")
		// Response-data write TLP, then host DRAM write. The completion
		// write queues behind it on the upstream link, guaranteeing
		// host-visible ordering.
		e.send(opData, desc, data, sendAt)
		e.send(opCompletion, desc, nil, sendAt)
		if e.dev.inj.Duplicate() {
			// Spurious second completion; the host scheduler discards
			// entries for descriptors it no longer tracks.
			desc.Span.Point(sendAt, "fault-duplicate")
			e.send(opCompletion, desc, nil, sendAt)
		}
	}
}

// opKind names the device-initiated DMA chains of the SWQ path.
type opKind uint8

const (
	// opData writes a response line into host memory: an upstream TLP,
	// then the host DRAM write.
	opData opKind = iota
	// opCompletion posts a completion entry the same way, then places
	// it in the completion queue.
	opCompletion
	// opWrite serves a write descriptor: an upstream read request, the
	// host DRAM read of the source line, the line carried downstream,
	// then an opCompletion.
	opWrite
)

// dmaOp is one device-initiated DMA chain in flight. Each step's event
// calls next, bound once per record; the endpoint recycles the record
// after the chain's last step, when no pending event refers to it.
type dmaOp struct {
	ep     *SWQEndpoint
	kind   opKind
	stage  int
	id     uint64
	data   []byte
	sendAt sim.Time
	sp     trace.Span     // access-lifecycle span of the descriptor
	aw     *attrib.Access // attribution ledger of the descriptor
	nextFn func()         // o.next
}

// send starts a DMA chain for desc whose first TLP leaves at sendAt.
func (e *SWQEndpoint) send(kind opKind, desc hostmem.Descriptor, data []byte, sendAt sim.Time) {
	var o *dmaOp
	if n := len(e.opFree); n > 0 {
		o = e.opFree[n-1]
		e.opFree = e.opFree[:n-1]
	} else {
		o = &dmaOp{ep: e}
		o.nextFn = o.next
	}
	o.kind, o.stage, o.id, o.data, o.sendAt, o.sp, o.aw = kind, 0, desc.ID, data, sendAt, desc.Span, desc.Attrib
	switch kind {
	case opData:
		e.dev.link.SendUpAt(sendAt, platform.CacheLineBytes, platform.CacheLineBytes, o.nextFn)
	case opCompletion:
		e.dev.link.SendUpAt(sendAt, e.dev.cfg.CompletionBytes, 0, o.nextFn)
	case opWrite:
		e.dev.link.SendUp(0, 0, o.nextFn)
	}
}

// next runs the chain's next step when the previous one completes.
func (o *dmaOp) next() {
	e := o.ep
	o.stage++
	now := e.dev.eng.Now()
	switch {
	case o.kind == opWrite && o.stage == 1:
		e.dev.hostDRAM.ReadThen(o.nextFn)
	case o.kind == opWrite && o.stage == 2:
		e.dev.link.SendDown(platform.CacheLineBytes, platform.CacheLineBytes, o.nextFn)
	case o.kind == opWrite:
		// Store absorbed; the completion flows back.
		o.kind, o.stage = opCompletion, 0
		e.dev.link.SendUp(e.dev.cfg.CompletionBytes, 0, o.nextFn)
	case o.stage == 1:
		if o.kind == opData {
			// The delay-module wait until the response left was device
			// service. Marked at arrival (never future-dated) so a
			// straggling descriptor's response cannot corrupt a ledger
			// the host already closed or resubmitted.
			o.aw.To(attrib.PhaseDevice, o.sendAt)
		}
		e.dev.hostDRAM.WriteThen(o.nextFn)
	case o.kind == opData:
		e.data[o.id] = o.data
		o.sp.Point(now, "data-landed")
		o.aw.To(attrib.PhaseTransit, now)
		o.release()
	default:
		// A duplicate completion's second mark clamps to zero on the
		// closed ledger.
		o.sp.Point(now, "completion-posted")
		o.aw.To(attrib.PhaseComplWait, now)
		id := o.id
		o.release()
		e.postCompletion(id)
	}
}

func (o *dmaOp) release() {
	o.data, o.sp, o.aw = nil, trace.Span{}, nil
	o.ep.opFree = append(o.ep.opFree, o)
}

// postCompletion places a landed completion into the host queue. Under
// an injected CQCapacity bound a full queue defers the post — the
// device retries after the platform's backpressure delay until the host
// drains entries.
func (e *SWQEndpoint) postCompletion(id uint64) {
	if e.dev.inj.CQFull(e.cq.Len()) {
		e.dev.eng.After(e.dev.cfg.CQBackpressureDelay, func() { e.postCompletion(id) })
		return
	}
	e.cq.Post(id, e.dev.eng.Now())
	if w := e.watch; w != nil {
		e.watch = nil
		w.Fire()
	}
	e.notify.Fire()
	e.notify.Reset()
}

// processWrite handles a write descriptor (§VII extension): the device
// DMA-reads the source line from host memory (read request upstream,
// data completion downstream), absorbs the store, and posts a
// completion the host scheduler discards.
func (e *SWQEndpoint) processWrite(desc hostmem.Descriptor) {
	e.dev.writesServed++
	e.send(opWrite, desc, nil, e.dev.eng.Now())
}
