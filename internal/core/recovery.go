package core

import (
	"slices"

	"repro/internal/attrib"
	"repro/internal/device"
	"repro/internal/hostmem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/uthread"
)

// This file holds the descriptor-timeout recovery machinery shared by
// the software-queue and kernel-queue schedulers: the deadline scan,
// the resubmit/abandon state machine, and the park-or-recover wait both
// schedulers enter when no thread is ready and the completion queue is
// empty.

// minDeadline returns the earliest recovery deadline among outstanding
// descriptors (order-independent, so map iteration is safe).
func minDeadline(waiting map[uint64]descWait) sim.Time {
	var min sim.Time
	first := true
	for _, w := range waiting {
		if first || w.deadline < min {
			min = w.deadline
			first = false
		}
	}
	return min
}

// waitCompletionOrRecover parks the scheduler on the completion gate
// when it has nothing runnable. Fault-free (or with nothing
// outstanding) it waits indefinitely — a completion must eventually
// arrive. Under fault injection it bounds the wait by the earliest
// descriptor deadline, so a lost completion or a swallowed doorbell
// cannot hang the core: on expiry it runs timeout recovery over every
// overdue descriptor. The gate must fire on the next completion posted
// after the caller's final completion-queue drain (the endpoint's
// Notify gate, checked in the same process step as the drain), or a
// wakeup is lost.
func waitCompletionOrRecover(p *sim.Proc, e *Env, rq *hostmem.RequestQueue, ep *device.SWQEndpoint,
	gate *sim.Gate, waiting map[uint64]descWait, states map[*uthread.Thread]*swqThreadState,
	ready *uthread.FIFO, c *counters) {
	if e.faults == nil || len(waiting) == 0 {
		p.Wait(gate)
		return
	}
	if !p.WaitTimeout(gate, minDeadline(waiting)-p.Now()) {
		resubmitOverdue(p, e, rq, ep, waiting, states, ready, c)
	}
}

// resubmitOverdue performs timeout recovery for every outstanding
// descriptor whose deadline has passed: within the retry budget the
// descriptor is re-pushed under a fresh ID with a backed-off deadline
// (the rewrite cost is charged to the core); past it the access is
// abandoned and its slot filled with a zero line so the thread still
// completes. If anything was resubmitted the doorbell is rung
// unconditionally — the fetcher may be parked on a doorbell that a
// fault swallowed. Descriptor IDs are scanned in sorted order to keep
// the run deterministic.
func resubmitOverdue(p *sim.Proc, e *Env, rq *hostmem.RequestQueue, ep *device.SWQEndpoint,
	waiting map[uint64]descWait, states map[*uthread.Thread]*swqThreadState,
	ready *uthread.FIFO, c *counters) {
	ids := make([]uint64, 0, len(waiting))
	for id := range waiting {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	resubmitted := false
	for _, id := range ids {
		w := waiting[id]
		if w.deadline > p.Now() {
			continue
		}
		delete(waiting, id)
		c.timeouts++
		if e.rec != nil {
			e.rec.Timeouts(p.Now(), 1)
		}
		w.sp.Point(p.Now(), "timeout")
		// Waiting out the timeout is retry backoff; the gap between the
		// deadline expiring and the host acting on it is timeout slop.
		w.aw.To(attrib.PhaseRetry, w.deadline)
		w.aw.To(attrib.PhaseSlop, p.Now())
		if w.attempts >= e.cfg.MaxRetries {
			// Out of budget: abandon with a zero-filled line.
			c.abandoned++
			c.recordLatency(p.Now() - w.submitted)
			if e.rec != nil {
				e.rec.Abandoned(p.Now(), 1)
				e.rec.Finished(p.Now())
				e.rec.Sample(p.Now(), p.Now()-w.submitted)
			}
			w.sp.Point(p.Now(), "abandoned")
			w.sp.End(p.Now())
			w.aw.Close(attrib.PhaseSlop, p.Now())
			st := states[w.th]
			st.data[w.slot] = make([]byte, platform.CacheLineBytes)
			st.remaining--
			if st.remaining == 0 {
				st.payload = st.data
				ready.Push(w.th)
			}
			continue
		}
		c.retries++
		if e.rec != nil {
			e.rec.Retries(p.Now(), 1)
		}
		p.Sleep(e.cfg.SWQPerAccessOverhead)
		w.attempts++
		w.deadline = p.Now() + e.cfg.RetryTimeout(w.attempts)
		w.sp.Point(p.Now(), "retry")
		w.aw.To(attrib.PhaseRetry, p.Now())
		newID := rq.PushTracked(w.addr, w.target, p.Now(), w.sp, w.aw)
		waiting[newID] = w
		resubmitted = true
	}
	if resubmitted {
		p.Sleep(e.cfg.DoorbellMMIO)
		rq.ClearDoorbellRequested()
		ep.Doorbell()
	}
}
