package core

import (
	"slices"

	"repro/internal/attrib"
	"repro/internal/hostmem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/uthread"
)

// swqThreadState tracks one thread's lifecycle under the FIFO scheduler.
// Its slices are reused batch after batch: a thread's previous batch is
// consumed by the time it submits the next one.
type swqThreadState struct {
	started   bool
	payload   [][]byte // data to deliver on the next resume
	data      [][]byte // in-progress batch results, by slot
	remaining int      // descriptors of the current batch still pending

	// atr holds the batch's attribution ledgers awaiting delivery, by
	// slot; empty when attribution is off or the batch had none complete.
	atr []*attrib.Access

	// ledgers is the ledger storage of the batch's slots when they are
	// embedded (attribution on, no fault injection); empty otherwise.
	// The previous batch's ledgers are all closed when the next begins.
	ledgers []attrib.Access
}

// begin readies the state for a batch of n accesses.
func (st *swqThreadState) begin(e *Env, n int) {
	st.data = slices.Grow(st.data[:0], n)[:n]
	clear(st.data)
	st.remaining = n
	if e.at != nil && e.faults == nil && len(st.ledgers) < n {
		st.ledgers = make([]attrib.Access, n)
	}
}

// open opens the attribution ledger of the batch's slot i at at.
func (st *swqThreadState) open(e *Env, i int, at sim.Time) *attrib.Access {
	var slot *attrib.Access
	if i < len(st.ledgers) {
		slot = &st.ledgers[i]
	}
	return e.openLedger(slot, at)
}

// park files a completed access's ledger until the batch is delivered.
func (st *swqThreadState) park(slot int, aw *attrib.Access) {
	if aw != nil && len(st.atr) == 0 {
		st.atr = slices.Grow(st.atr[:0], len(st.data))[:len(st.data)]
	}
	if len(st.atr) > 0 {
		st.atr[slot] = aw
	}
}

// delivered empties the parked ledgers once the batch is delivered.
func (st *swqThreadState) delivered() {
	clear(st.atr)
	st.atr = st.atr[:0]
}

// descWait maps an outstanding descriptor to the thread slot its data
// belongs to. The addr/target/attempts/deadline fields drive timeout
// recovery under fault injection: an overdue descriptor is resubmitted
// under a fresh ID (so a straggling completion of the old one is simply
// discarded as unknown) until the retry budget runs out.
type descWait struct {
	th        *uthread.Thread
	slot      int
	submitted sim.Time // original submission, for latency accounting
	addr      uint64
	target    uint64
	attempts  int
	deadline  sim.Time
	sp        trace.Span     // access-lifecycle span; survives resubmission
	aw        *attrib.Access // attribution ledger; survives resubmission
}

// installQueueHooks installs the depth observers on the request queue,
// completion queue, and ready FIFO, sampled on every state change and
// fanned out to the trace counters (absolute depth) and the recorder
// gauges (deltas via a captured previous value). The hooks read the
// engine clock directly because queue transitions happen in both core
// and device contexts. Shared by the SWQ and kernel-queue mechanisms.
func installQueueHooks(e *Env, coreID int, rq *hostmem.RequestQueue, cq *hostmem.CompletionQueue, ready *uthread.FIFO) {
	if e.tr == nil && e.rec == nil {
		return
	}
	prevSQ, prevCQ, prevReady := 0, 0, 0
	rq.OnChange = func(n int) {
		if e.tr != nil {
			e.tr.Counter(e.eng.Now(), e.sqName[coreID], n)
		}
		if e.rec != nil {
			e.rec.GaugeAdd(telemetry.GaugeSQ, e.eng.Now(), n-prevSQ)
		}
		prevSQ = n
	}
	cq.OnChange = func(n int) {
		if e.tr != nil {
			e.tr.Counter(e.eng.Now(), e.cqName[coreID], n)
		}
		if e.rec != nil {
			e.rec.GaugeAdd(telemetry.GaugeCQ, e.eng.Now(), n-prevCQ)
		}
		prevCQ = n
	}
	ready.OnChange = func(n int) {
		if e.tr != nil {
			e.tr.Counter(e.eng.Now(), e.runnableName[coreID], n)
		}
		if e.rec != nil {
			e.rec.GaugeAdd(telemetry.GaugeRunnable, e.eng.Now(), n-prevReady)
		}
		prevReady = n
	}
}

// runSWQCore executes one core under the application-managed
// software-queue mechanism (§III-A as refined in §IV): threads submit
// descriptors to the in-memory request queue (ringing the MMIO doorbell
// only when the doorbell-request flag is set), and a FIFO user-level
// scheduler runs ready threads, polling the completion queue "only when
// no threads remain in the ready state" (§IV-B).
func runSWQCore(p *sim.Proc, e *Env, coreID int, threads []*uthread.Thread, c *counters) {
	rq := hostmem.NewRequestQueue()
	cq := hostmem.NewCompletionQueue()
	ep := e.dev.NewSWQEndpoint(coreID, rq, cq)
	defer ep.Stop()

	ready := uthread.NewFIFO()
	installQueueHooks(e, coreID, rq, cq, ready)
	states := make(map[*uthread.Thread]*swqThreadState, len(threads))
	waiting := make(map[uint64]descWait)
	for _, th := range threads {
		states[th] = &swqThreadState{}
		ready.Push(th)
	}
	live := len(threads)
	var cur *uthread.Thread
	defer func() {
		c.fetchBursts += ep.FetchBursts()
		c.emptyBursts += ep.EmptyBursts()
		if rq.MaxDepth() > c.maxRQDepth {
			c.maxRQDepth = rq.MaxDepth()
		}
	}()

	for live > 0 {
		th := ready.Pop()
		if th == nil {
			// No ready threads: poll the completion queue. A completion
			// posted during the poll is in the drain; an empty drain
			// parks on the endpoint's notifier, which fires on the next
			// post (nothing runs between the drain and the wait).
			p.Sleep(e.cfg.CompletionPoll)
			compls := cq.Drain()
			if len(compls) == 0 {
				waitCompletionOrRecover(p, e, rq, ep, ep.Notify(), waiting, states, ready, c)
				continue
			}
			for _, compl := range compls {
				w, ok := waiting[compl.ID]
				if !ok {
					continue // write completion: fire-and-forget
				}
				delete(waiting, compl.ID)
				c.recordLatency(compl.Posted - w.submitted)
				if e.rec != nil {
					// Windowed at the drain time (monotone); the latency
					// itself still ends at the device's post time.
					e.rec.Finished(p.Now())
					e.rec.Sample(p.Now(), compl.Posted-w.submitted)
				}
				w.sp.End(compl.Posted)
				st := states[w.th]
				// The poll found the completion now; everything since the
				// device posted it is completion wait. The ledger parks on
				// the thread state until the scheduler resumes it.
				w.aw.To(attrib.PhaseComplWait, p.Now())
				st.park(w.slot, w.aw)
				st.data[w.slot] = ep.Data(compl.ID)
				st.remaining--
				if st.remaining == 0 {
					// The thread wakes with its whole batch; threads
					// become ready in completion order (FIFO, §IV-B).
					st.payload = st.data
					ready.Push(w.th)
				}
			}
			continue
		}

		var switchStart, switchEnd sim.Time
		if cur != nil && th != cur {
			switchStart = p.Now()
			p.Sleep(e.cfg.CtxSwitch)
			switchEnd = p.Now()
			c.switches++
			if e.rec != nil {
				e.rec.Switches(p.Now(), 1)
			}
		}
		cur = th

		st := states[th]
		var req uthread.Request
		if st.started {
			// Close the batch's ledgers at delivery: ready-queue time is
			// completion wait, the switch interval (when one happened) is
			// switch overhead, and the residual until the thread actually
			// consumes the data is completion wait again.
			for _, aw := range st.atr {
				aw.To(attrib.PhaseComplWait, switchStart)
				aw.To(attrib.PhaseSwitch, switchEnd)
				aw.Close(attrib.PhaseComplWait, p.Now())
			}
			st.delivered()
			req = th.Resume(st.payload)
			st.payload = nil
		} else {
			st.started = true
			req = th.Start()
		}

	inner:
		for {
			switch req.Kind {
			case uthread.KindWork:
				p.Sleep(e.cfg.WorkTime(req.Instr))
				c.workInstr += int64(req.Instr)
				req = th.Resume(nil)
			case uthread.KindWrite:
				// Fire-and-forget write descriptors: queue-management
				// cost is paid, but the thread does not wait (§VII).
				for _, addr := range req.Addrs {
					p.Sleep(e.cfg.SWQPerAccessOverhead)
					c.writes++
					rq.PushWrite(addr, responseTarget(coreID, th.ID(), 0), p.Now())
				}
				if rq.DoorbellRequested() || e.cfg.SWQAlwaysDoorbell {
					p.Sleep(e.cfg.DoorbellMMIO)
					rq.ClearDoorbellRequested()
					ep.Doorbell()
				}
				req = th.Resume(nil)
			default:
				break inner
			}
		}

		switch req.Kind {
		case uthread.KindAccess:
			// Submit the batch: fixed queue-management cost plus a
			// marginal cost per descriptor (§V-C: overhead grows with
			// the number of accesses "even when the accesses are
			// batched").
			p.Sleep(e.cfg.SWQBatchOverhead)
			st.begin(e, len(req.Addrs))
			for i, addr := range req.Addrs {
				aw := st.open(e, i, p.Now())
				p.Sleep(e.cfg.SWQPerAccessOverhead)
				aw.To(attrib.PhaseIssue, p.Now())
				c.accesses++
				if e.rec != nil {
					e.rec.Started(p.Now())
				}
				target := responseTarget(coreID, th.ID(), i)
				var sp trace.Span
				if e.tr != nil {
					sp = e.trCore[coreID].BeginSpan(p.Now(), "access", trace.Hex("addr", addr))
				}
				id := rq.PushTracked(addr, target, p.Now(), sp, aw)
				waiting[id] = descWait{
					th: th, slot: i, submitted: p.Now(),
					addr: addr, target: target,
					deadline: p.Now() + e.cfg.RetryTimeout(0),
					sp:       sp, aw: aw,
				}
			}
			// Ring the doorbell only if the device asked for it (or on
			// every submission, in the ablated flagless variant).
			if rq.DoorbellRequested() || e.cfg.SWQAlwaysDoorbell {
				p.Sleep(e.cfg.DoorbellMMIO)
				rq.ClearDoorbellRequested()
				ep.Doorbell()
			}
		case uthread.KindDone:
			live--
		}
	}
	c.coreFinished(p.Now())
}

// responseTarget synthesizes a distinct host-memory response buffer
// address per (core, thread, slot); the software queues never share
// response locations (§V-C).
func responseTarget(coreID, threadID, slot int) uint64 {
	return 1<<63 | uint64(coreID)<<40 | uint64(threadID)<<20 | uint64(slot)<<6
}
