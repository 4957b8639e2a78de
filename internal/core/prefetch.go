package core

import (
	"slices"

	"repro/internal/attrib"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/uthread"
)

// pendingAccess tracks one thread's outstanding prefetch batch: the
// in-flight lines and the slots their data will land in. Each thread
// keeps one for its whole run: a batch is consumed before the thread
// can issue the next, so its slices and line records are reused.
type pendingAccess struct {
	active bool // a batch is outstanding
	data   [][]byte
	lines  []*lineFetch // lines[:len(data)] serve the current batch
	issued sim.Time
}

// begin readies the record for a batch of n lines issued at now.
func (pa *pendingAccess) begin(n int, now sim.Time) {
	pa.active = true
	pa.issued = now
	pa.data = slices.Grow(pa.data[:0], n)[:n]
	clear(pa.data)
}

// line returns the record for slot i of the current batch, re-armed.
func (pa *pendingAccess) line(e *Env, coreID, i int) *lineFetch {
	if i == len(pa.lines) {
		l := &lineFetch{e: e, pa: pa, coreID: coreID, slot: i, gate: e.eng.NewGate()}
		l.acquiredFn, l.doneFn = l.acquired, l.done
		pa.lines = append(pa.lines, l)
	}
	l := pa.lines[i]
	l.gate.Reset()
	l.miss, l.sp, l.aw = false, trace.Span{}, nil
	return l
}

// lineFetch is one slot of a thread's prefetch batch. A cache hit
// leaves it idle; a miss sends it through the chip-level queue and the
// device, and its gate fires when the line lands. Its callbacks are
// bound once, so a fault-free miss allocates nothing here.
type lineFetch struct {
	e      *Env
	pa     *pendingAccess
	coreID int
	slot   int
	addr   uint64
	miss   bool           // sent to the device this batch (false for a cache hit)
	sp     trace.Span     // access-lifecycle span
	aw     *attrib.Access // attribution ledger; nil when off or for a hit
	ledger attrib.Access  // aw's storage on the fault-free path
	gate   *sim.Gate      // fires when the line has landed

	acquiredFn func()       // l.acquired
	doneFn     func([]byte) // l.done
}

// acquired runs when the line's request takes a chip-level queue slot.
func (l *lineFetch) acquired() {
	now := l.e.eng.Now()
	l.sp.Point(now, "chipq-acquired")
	l.aw.To(attrib.PhaseQueueWait, now)
	l.e.dev.MMIORead(l.coreID, l.addr, l.sp, l.aw, l.doneFn)
}

// done delivers the line's data.
func (l *lineFetch) done(data []byte) {
	e := l.e
	l.aw.To(attrib.PhaseTransit, e.eng.Now())
	l.pa.data[l.slot] = data
	if cc := e.caches[l.coreID]; cc != nil {
		cc.Insert(l.addr, data)
	}
	e.chip.Release()
	e.lfb[l.coreID].Release()
	l.gate.Fire()
	if e.rec != nil {
		e.rec.Finished(e.eng.Now())
	}
	l.sp.End(e.eng.Now())
}

// runPrefetchCore executes one core under the prefetch mechanism
// (Listing 1): for every device access the thread issues a non-binding
// prefetch per line — allocating an LFB entry, and a chip-level queue
// slot on the way to the PCIe controller — then performs a user-level
// context switch. The round-robin scheduler later resumes the thread,
// whose demand load either hits in the L1 (the fill arrived) or blocks
// the core until the in-flight miss completes (MSHR merge).
func runPrefetchCore(p *sim.Proc, e *Env, coreID int, threads []*uthread.Thread, c *counters) {
	initial := make(map[*uthread.Thread]uthread.Request, len(threads))
	pending := make(map[*uthread.Thread]*pendingAccess, len(threads))
	for _, th := range threads {
		initial[th] = th.Start()
		pending[th] = &pendingAccess{}
	}
	rr := uthread.NewRoundRobin(threads)
	var cur *uthread.Thread

	// Runnable-set observability: the trace counter wants the absolute
	// live count, the recorder gauge a delta from the previous sample.
	prevLive := 0
	setLive := func(n int) {
		if e.tr != nil {
			e.tr.Counter(p.Now(), e.runnableName[coreID], n)
		}
		if e.rec != nil {
			e.rec.GaugeAdd(telemetry.GaugeRunnable, p.Now(), n-prevLive)
		}
		prevLive = n
	}
	if e.tr != nil || e.rec != nil {
		setLive(rr.Live())
	}

	for {
		th := rr.Next()
		if th == nil {
			break
		}
		// The switch interval is captured so delivery below can attribute
		// it per line; when no switch happens both stamps stay zero and
		// the attribution marks clamp to nothing.
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

		// Obtain the thread's next request: deliver prefetched data
		// (waiting on any line still in flight), or pick up the request
		// captured at Start.
		var req uthread.Request
		if pa := pending[th]; pa.active {
			lines := pa.lines[:len(pa.data)]
			for _, l := range lines {
				if l.miss {
					p.Wait(l.gate) // demand load; no cost if the line already filled
				}
			}
			c.recordLatency(p.Now() - pa.issued)
			if e.rec != nil {
				e.rec.Sample(p.Now(), p.Now()-pa.issued)
			}
			// Close each line's ledger at consumption. The unconditional
			// marks rely on the clamp: a line that landed before the
			// switch charges it to the switch phase, a line that was
			// still in flight keeps everything in completion wait.
			for _, l := range lines {
				l.aw.To(attrib.PhaseComplWait, switchStart)
				l.aw.To(attrib.PhaseSwitch, switchEnd)
				l.aw.Close(attrib.PhaseComplWait, p.Now())
			}
			pa.active = false
			req = th.Resume(pa.data)
		} else {
			req = initial[th]
			delete(initial, th)
		}

		// Work and posted writes do not yield; run the thread until it
		// reads or ends.
	inner:
		for {
			switch req.Kind {
			case uthread.KindWork:
				p.Sleep(e.cfg.WorkTime(req.Instr))
				c.workInstr += int64(req.Instr)
				req = th.Resume(nil)
			case uthread.KindWrite:
				// Posted stores: each takes a store-buffer entry (a
				// full buffer stalls the core) and drains to the device
				// asynchronously; the thread continues immediately.
				// Coherence invalidates the line in every core's cache
				// (§V-C).
				for _, addr := range req.Addrs {
					p.AcquireToken(e.storeBuf[coreID])
					p.Sleep(e.cfg.WriteIssue)
					c.writes++
					e.invalidateAll(addr)
					sb := e.storeBuf[coreID]
					e.dev.MMIOWrite(coreID, addr, sb.Release)
				}
				req = th.Resume(nil)
			default:
				break inner
			}
		}

		if req.Kind == uthread.KindAccess {
			pa := pending[th]
			pa.begin(len(req.Addrs), p.Now())
			for i, addr := range req.Addrs {
				l := pa.line(e, coreID, i)
				// A cache hit satisfies the prefetch on-chip: no LFB
				// entry, no device access (§III-B, cacheable MMIO).
				if cc := e.caches[coreID]; cc != nil {
					if data, ok := cc.Lookup(addr); ok {
						pa.data[i] = data
						continue
					}
				}

				// The access span opens at prefetch issue, before any
				// queue wait, so LFB stalls are visible in its shape.
				var sp trace.Span
				if e.tr != nil {
					sp = e.trCore[coreID].BeginSpan(p.Now(), "access", trace.Hex("addr", addr))
				}
				aw := e.openLedger(&l.ledger, p.Now())
				l.sp, l.aw = sp, aw

				// prefetcht0: allocate an LFB entry; a full pool stalls
				// the core until an entry frees — the 10-entry limit of
				// §V-B.
				p.AcquireToken(e.lfb[coreID])
				sp.Point(p.Now(), "lfb-acquired")
				aw.To(attrib.PhaseQueueWait, p.Now())
				p.Sleep(e.cfg.PrefetchIssue)
				aw.To(attrib.PhaseIssue, p.Now())
				c.accesses++
				if e.rec != nil {
					e.rec.Started(p.Now())
				}

				l.addr, l.miss = addr, true
				// The request proceeds to the device once a slot in the
				// chip-level shared queue frees; the wait happens in the
				// hardware queues, not on the core.
				if e.faults == nil {
					e.chip.OnAcquire(l.acquiredFn)
					continue
				}
				g := l.gate
				lfb := e.lfb[coreID]
				// Fault-aware path: the in-flight line gets a timeout;
				// on expiry the host re-issues the read (the LFB entry
				// and chip-queue slot stay allocated across retries),
				// backing off until the retry budget runs out, then
				// abandons with a zero-filled line. finish is guarded
				// because a duplicated or straggling response can race a
				// retry's response — only the first delivery counts.
				completed := false
				finish := func(data []byte, genuine bool) {
					if completed {
						return
					}
					completed = true
					aw.To(attrib.PhaseTransit, e.eng.Now())
					pa.data[i] = data
					if genuine {
						if cc := e.caches[coreID]; cc != nil {
							cc.Insert(addr, data)
						}
					}
					e.chip.Release()
					lfb.Release()
					g.Fire()
					if e.rec != nil {
						e.rec.Finished(e.eng.Now())
					}
					sp.End(e.eng.Now())
				}
				var attempt func(n int)
				attempt = func(n int) {
					e.dev.MMIORead(coreID, addr, sp, aw, func(data []byte) {
						finish(data, true)
					})
					e.eng.After(e.cfg.RetryTimeout(n), func() {
						if completed {
							return
						}
						aw.To(attrib.PhaseRetry, e.eng.Now())
						c.timeouts++
						if e.rec != nil {
							e.rec.Timeouts(e.eng.Now(), 1)
						}
						sp.Point(e.eng.Now(), "timeout")
						if n >= e.cfg.MaxRetries {
							c.abandoned++
							if e.rec != nil {
								e.rec.Abandoned(e.eng.Now(), 1)
							}
							sp.Point(e.eng.Now(), "abandoned")
							finish(make([]byte, platform.CacheLineBytes), false)
							return
						}
						c.retries++
						if e.rec != nil {
							e.rec.Retries(e.eng.Now(), 1)
						}
						sp.Point(e.eng.Now(), "retry")
						attempt(n + 1)
					})
				}
				e.chip.OnAcquire(func() {
					sp.Point(e.eng.Now(), "chipq-acquired")
					aw.To(attrib.PhaseQueueWait, e.eng.Now())
					attempt(0)
				})
			}
			// userctx_yield(): fall through to the scheduler.
		} else if e.tr != nil || e.rec != nil {
			// The thread just finished; record the shrunk runnable set.
			setLive(rr.Live())
		}
	}
	c.coreFinished(p.Now())
}
