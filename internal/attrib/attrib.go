// Package attrib is the latency-attribution ledger: it decomposes every
// access's end-to-end latency into a fixed taxonomy of exclusive,
// exhaustive phases — issue/setup, queue wait (LFB, chip queue, or SWQ),
// PCIe transit, device service, completion wait, context-switch
// overhead, retry backoff, and timeout slop — so the observability
// stack can answer *where* the killer microsecond went, not just how
// long it was.
//
// The design mirrors the trace and telemetry layers: attribution is
// observational by contract. A nil Probe hands out nil Accesses whose
// methods are no-ops, so disabled attribution costs the mechanisms one
// nil check per mark and never schedules events or perturbs timing.
//
// Exactness is structural, not assembled: an Access is a telescoping
// interval ledger. Open fixes the start, every To(phase, at) assigns
// the interval since the previous mark to a phase, and Close assigns
// the final residual — so the per-phase sums always total exactly
// end minus start, in integer picoseconds, with no float arithmetic
// and no rounding. Marks with a timestamp earlier than the previous
// mark clamp to a zero-length interval (the previous phase keeps the
// time), which is what makes the per-mechanism instrumentation simple:
// conditional marks (a context switch that may or may not have
// overlapped a line's flight) can be issued unconditionally and the
// clamp sorts out which phase actually owns the wall time.
package attrib

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Phase is one slice of the fixed attribution taxonomy. The phases are
// exclusive and exhaustive: every picosecond of an access's window
// belongs to exactly one.
type Phase int

const (
	// PhaseIssue is per-access software issue/setup cost on the core:
	// the prefetch instruction, the descriptor write, the syscall-side
	// per-descriptor bookkeeping.
	PhaseIssue Phase = iota
	// PhaseQueueWait is time waiting for queue capacity or service
	// before the device sees the request: LFB allocation, the
	// chip-level MMIO queue, or a software-queue descriptor waiting to
	// be fetched (including doorbell and fetch-burst delays).
	PhaseQueueWait
	// PhaseTransit is PCIe time: request and response TLPs on the
	// link, plus host-DRAM landing of DMA responses.
	PhaseTransit
	// PhaseDevice is device service time inside the emulator's delay
	// module (inclusive of the configured latency budget it spends
	// waiting to hit its end-to-end target).
	PhaseDevice
	// PhaseComplWait is time between the data being host-visible and
	// the consuming thread being chosen to run: completion-queue
	// residence, scheduler polling, and ready-queue wait.
	PhaseComplWait
	// PhaseSwitch is context-switch overhead on the delivery path:
	// user-level switches, kernel switches, syscall returns, interrupt
	// delivery.
	PhaseSwitch
	// PhaseRetry is recovery time: waiting out an access timeout and
	// re-issuing after a fault.
	PhaseRetry
	// PhaseSlop is timeout slop: time between a recovery deadline
	// expiring and the host actually acting on it.
	PhaseSlop
	// NumPhases is the taxonomy size.
	NumPhases
)

// phaseNames are the stable slugs used in reports, CSV columns, and
// claim IDs. Order matches the Phase constants.
var phaseNames = [NumPhases]string{
	"issue",
	"queue_wait",
	"transit",
	"device",
	"completion_wait",
	"switch",
	"retry_backoff",
	"timeout_slop",
}

// String returns the phase's stable slug.
func (ph Phase) String() string {
	if ph < 0 || ph >= NumPhases {
		return "invalid"
	}
	return phaseNames[ph]
}

// Names returns the phase slugs in taxonomy order (a fresh slice).
func Names() []string {
	return append([]string(nil), phaseNames[:]...)
}

// Probe accumulates one run's attribution: exact per-phase picosecond
// sums, per-phase histograms of per-access phase totals, and the
// telescoping-invariant bookkeeping. It is not goroutine-safe; all
// recording comes from the single simulation goroutine, exactly like
// the telemetry recorder.
type Probe struct {
	label string

	sums   [NumPhases]int64            // exact picosecond totals
	counts [NumPhases]uint64           // accesses that spent >0 in the phase
	hists  [NumPhases]*stats.Histogram // per-access phase totals, ps

	accesses   uint64
	totalPs    int64  // sum of per-access end-to-end windows
	mismatches uint64 // Close calls whose end preceded the last mark

	// onClose, when set, observes every closed access: the close time
	// and the per-phase picosecond breakdown. The telemetry recorder
	// hooks it to build per-window phase columns.
	onClose func(end sim.Time, ph *[NumPhases]int64)
}

// NewProbe returns an empty probe for one labeled run.
func NewProbe(label string) *Probe {
	return &Probe{label: label}
}

// SetOnClose installs the per-access close observer (nil-probe no-op).
func (pr *Probe) SetOnClose(fn func(end sim.Time, ph *[NumPhases]int64)) {
	if pr == nil {
		return
	}
	pr.onClose = fn
}

// Open begins the ledger for one access at sim-time at. A nil probe
// returns a nil Access, whose methods are all no-ops.
func (pr *Probe) Open(at sim.Time) *Access {
	if pr == nil {
		return nil
	}
	return pr.OpenIn(new(Access), at)
}

// OpenIn is Open on caller-owned storage: it resets a to a fresh
// ledger starting at at and returns it, so a record that carries its
// ledger by value opens accesses without allocating. A nil probe
// returns nil and leaves a untouched. The caller must not reuse a
// while anything that could still mark or close the old ledger holds
// it: a closed ledger ignores stragglers, a reopened one does not.
func (pr *Probe) OpenIn(a *Access, at sim.Time) *Access {
	if pr == nil {
		return nil
	}
	*a = Access{pr: pr, start: at, last: at}
	return a
}

// Accesses returns the number of closed accesses.
func (pr *Probe) Accesses() uint64 {
	if pr == nil {
		return 0
	}
	return pr.accesses
}

// Mismatches returns how many accesses closed with an end time earlier
// than their last mark (the end was clamped; phase sums still
// telescope exactly). Always zero on a correctly instrumented run.
func (pr *Probe) Mismatches() uint64 {
	if pr == nil {
		return 0
	}
	return pr.mismatches
}

// TotalPs returns the exact sum of all closed accesses' end-to-end
// windows in picoseconds.
func (pr *Probe) TotalPs() int64 {
	if pr == nil {
		return 0
	}
	return pr.totalPs
}

// PhasePs returns the exact picosecond total attributed to one phase.
func (pr *Probe) PhasePs(ph Phase) int64 {
	if pr == nil {
		return 0
	}
	return pr.sums[ph]
}

// Summary renders the probe as a pure-value stats.AttribSummary, ready
// to ride a core.Result through the gob result cache. A nil probe
// returns nil. Every phase appears in taxonomy order, including
// all-zero ones, so report columns are stable across cells.
func (pr *Probe) Summary() *stats.AttribSummary {
	if pr == nil {
		return nil
	}
	s := &stats.AttribSummary{
		Label:      pr.label,
		Accesses:   pr.accesses,
		TotalPs:    pr.totalPs,
		Mismatches: pr.mismatches,
		Phases:     make([]stats.PhaseSum, NumPhases),
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		h := pr.hists[ph]
		s.Phases[ph] = stats.PhaseSum{
			Phase: phaseNames[ph],
			SumPs: pr.sums[ph],
			Count: pr.counts[ph],
			P50Ns: sim.Time(h.Quantile(0.50)).Nanoseconds(),
			P99Ns: sim.Time(h.Quantile(0.99)).Nanoseconds(),
			MaxNs: sim.Time(h.Max()).Nanoseconds(),
		}
	}
	return s
}

// Access is the per-access phase ledger: a telescoping sequence of
// marks between Open and Close. All methods are nil-safe no-ops so the
// mechanisms can mark unconditionally.
type Access struct {
	pr     *Probe
	start  sim.Time
	last   sim.Time
	ph     [NumPhases]int64
	closed bool
}

// To assigns the interval since the previous mark to ph, advancing the
// mark to at. A timestamp at or before the previous mark assigns
// nothing (zero-length interval) and leaves the mark where it was, so
// out-of-order or conditional marks are safe: the earlier phase keeps
// the time and the total still telescopes.
func (a *Access) To(ph Phase, at sim.Time) {
	if a == nil || a.closed {
		return
	}
	if at <= a.last {
		return
	}
	a.ph[ph] += int64(at - a.last)
	a.last = at
}

// Close assigns the residual interval since the last mark to final and
// folds the access into its probe. An end earlier than the last mark
// is clamped to the last mark and counted as a mismatch (the phase
// sums still total the ledger's window exactly). Subsequent To or
// Close calls are no-ops, so straggling device responses arriving
// after delivery cannot double-account.
func (a *Access) Close(final Phase, end sim.Time) {
	if a == nil || a.closed {
		return
	}
	a.closed = true
	pr := a.pr
	if end < a.last {
		pr.mismatches++
		end = a.last
	}
	a.ph[final] += int64(end - a.last)
	a.last = end

	pr.accesses++
	pr.totalPs += int64(end - a.start)
	for ph := Phase(0); ph < NumPhases; ph++ {
		v := a.ph[ph]
		if v == 0 {
			continue
		}
		pr.sums[ph] += v
		pr.counts[ph]++
		if pr.hists[ph] == nil {
			pr.hists[ph] = stats.NewHistogram()
		}
		pr.hists[ph].Record(v)
	}
	if pr.onClose != nil {
		pr.onClose(end, &a.ph)
	}
}

// Closed reports whether the access has been closed (false for nil).
func (a *Access) Closed() bool { return a != nil && a.closed }

// PhasePs returns the picoseconds this access has assigned to ph so
// far (0 for nil).
func (a *Access) PhasePs(ph Phase) int64 {
	if a == nil {
		return 0
	}
	return a.ph[ph]
}

// ElapsedPs returns the access's window so far: last mark minus start.
func (a *Access) ElapsedPs() int64 {
	if a == nil {
		return 0
	}
	return int64(a.last - a.start)
}
