package attrib

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
)

func TestTelescopingExactness(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(100)
	a.To(PhaseIssue, 150)
	a.To(PhaseQueueWait, 400)
	a.To(PhaseTransit, 900)
	a.To(PhaseDevice, 1900)
	a.Close(PhaseComplWait, 2500)

	if got := a.PhasePs(PhaseIssue); got != 50 {
		t.Errorf("issue = %d, want 50", got)
	}
	if got := a.PhasePs(PhaseQueueWait); got != 250 {
		t.Errorf("queue_wait = %d, want 250", got)
	}
	if got := a.PhasePs(PhaseComplWait); got != 600 {
		t.Errorf("completion_wait = %d, want 600", got)
	}
	var sum int64
	for ph := Phase(0); ph < NumPhases; ph++ {
		sum += a.PhasePs(ph)
	}
	if sum != 2400 {
		t.Errorf("phase sum %d != end-to-end 2400", sum)
	}
	if pr.TotalPs() != 2400 || pr.Accesses() != 1 || pr.Mismatches() != 0 {
		t.Errorf("probe totals = (%d, %d, %d), want (2400, 1, 0)",
			pr.TotalPs(), pr.Accesses(), pr.Mismatches())
	}
}

// TestOutOfOrderMarksClamp pins the property the mechanisms rely on:
// marks with stale or future-overlapping timestamps assign zero-length
// intervals instead of corrupting the ledger, so conditional phase
// boundaries can be marked unconditionally.
func TestOutOfOrderMarksClamp(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(1000)
	a.To(PhaseDevice, 5000)  // future-dated device mark
	a.To(PhaseTransit, 3000) // stale: clamps to nothing
	a.To(PhaseTransit, 6000)
	a.To(PhaseComplWait, 0) // zero stamp (no switch happened): no-op
	a.To(PhaseSwitch, 0)
	a.Close(PhaseComplWait, 6400)

	if got := a.PhasePs(PhaseDevice); got != 4000 {
		t.Errorf("device = %d, want 4000", got)
	}
	if got := a.PhasePs(PhaseTransit); got != 1000 {
		t.Errorf("transit = %d, want 1000", got)
	}
	if got := a.PhasePs(PhaseSwitch); got != 0 {
		t.Errorf("switch = %d, want 0", got)
	}
	if pr.TotalPs() != 5400 {
		t.Errorf("total %d != 5400", pr.TotalPs())
	}
	if pr.Mismatches() != 0 {
		t.Errorf("clamped marks counted as mismatches: %d", pr.Mismatches())
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(0)
	a.Close(PhaseDevice, 100)
	// A straggling response marking or re-closing after delivery must
	// not double-account.
	a.To(PhaseTransit, 500)
	a.Close(PhaseComplWait, 900)
	if !a.Closed() {
		t.Fatal("not closed")
	}
	if pr.Accesses() != 1 || pr.TotalPs() != 100 {
		t.Errorf("probe = (%d accesses, %d ps), want (1, 100)", pr.Accesses(), pr.TotalPs())
	}
	if got := pr.PhasePs(PhaseTransit); got != 0 {
		t.Errorf("post-close mark leaked %d ps into transit", got)
	}
}

func TestCloseClampsEarlyEndAsMismatch(t *testing.T) {
	pr := NewProbe("test")
	a := pr.Open(0)
	a.To(PhaseDevice, 1000)
	a.Close(PhaseComplWait, 400) // end precedes the last mark
	if pr.Mismatches() != 1 {
		t.Errorf("mismatches = %d, want 1", pr.Mismatches())
	}
	// The ledger still telescopes: total equals the clamped window.
	if pr.TotalPs() != 1000 || pr.PhasePs(PhaseDevice) != 1000 {
		t.Errorf("clamped close broke telescoping: total %d, device %d",
			pr.TotalPs(), pr.PhasePs(PhaseDevice))
	}
}

// TestNilProbeAndAccessAreNoOps pins the disabled-attribution contract:
// everything is callable on nils and records nothing.
func TestNilProbeAndAccessAreNoOps(t *testing.T) {
	var pr *Probe
	a := pr.Open(100)
	if a != nil {
		t.Fatal("nil probe handed out a non-nil access")
	}
	a.To(PhaseIssue, 200)
	a.Close(PhaseDevice, 300)
	if a.Closed() || a.PhasePs(PhaseIssue) != 0 || a.ElapsedPs() != 0 {
		t.Error("nil access recorded something")
	}
	if pr.Accesses() != 0 || pr.TotalPs() != 0 || pr.Mismatches() != 0 {
		t.Error("nil probe accumulated something")
	}
	if pr.Summary() != nil {
		t.Error("nil probe produced a summary")
	}
	pr.SetOnClose(nil)
}

func TestSummaryValidatesAndOrdersPhases(t *testing.T) {
	pr := NewProbe("sum")
	for i := 0; i < 10; i++ {
		a := pr.Open(sim.Time(i) * 1000)
		a.To(PhaseIssue, sim.Time(i)*1000+100)
		a.To(PhaseDevice, sim.Time(i)*1000+700)
		a.Close(PhaseComplWait, sim.Time(i)*1000+800)
	}
	s := pr.Summary()
	if err := s.Validate(); err != nil {
		t.Fatalf("summary invalid: %v", err)
	}
	if s.Label != "sum" || s.Accesses != 10 || s.TotalPs != 8000 {
		t.Errorf("summary header = (%q, %d, %d)", s.Label, s.Accesses, s.TotalPs)
	}
	if len(s.Phases) != int(NumPhases) {
		t.Fatalf("summary has %d phases, want %d", len(s.Phases), NumPhases)
	}
	for i, p := range s.Phases {
		if p.Phase != Phase(i).String() {
			t.Errorf("phase %d = %q, want %q", i, p.Phase, Phase(i).String())
		}
	}
	// All-zero phases appear with zero sums so columns stay stable.
	if s.PhasePs("retry_backoff") != 0 || s.PhasePs("issue") != 1000 {
		t.Errorf("phase sums wrong: retry=%d issue=%d",
			s.PhasePs("retry_backoff"), s.PhasePs("issue"))
	}
	if ph, frac := s.DominantPhase(); ph != "device" || frac <= 0.5 {
		t.Errorf("dominant = (%q, %g), want device with majority share", ph, frac)
	}
	if s.Phases[PhaseDevice].P50Ns <= 0 || s.Phases[PhaseDevice].MaxNs <= 0 {
		t.Error("device percentiles missing")
	}
}

func TestOnCloseObserverSeesEveryClose(t *testing.T) {
	pr := NewProbe("obs")
	var ends []sim.Time
	var devPs int64
	pr.SetOnClose(func(end sim.Time, ph *[NumPhases]int64) {
		ends = append(ends, end)
		devPs += ph[PhaseDevice]
	})
	for i := 0; i < 3; i++ {
		a := pr.Open(sim.Time(i) * 100)
		a.To(PhaseDevice, sim.Time(i)*100+40)
		a.Close(PhaseComplWait, sim.Time(i)*100+50)
	}
	if len(ends) != 3 || ends[2] != 250 {
		t.Errorf("observer saw ends %v", ends)
	}
	if devPs != 120 {
		t.Errorf("observer device sum %d, want 120", devPs)
	}
}

func TestNamesAndString(t *testing.T) {
	names := Names()
	if len(names) != int(NumPhases) {
		t.Fatalf("Names() has %d entries, want %d", len(names), NumPhases)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" || seen[n] {
			t.Errorf("phase %d name %q empty or duplicate", i, n)
		}
		seen[n] = true
	}
	if Phase(-1).String() != "invalid" || NumPhases.String() != "invalid" {
		t.Error("out-of-range phases must stringify as invalid")
	}
	// Names returns a fresh slice; mutating it must not poison the
	// canonical order.
	names[0] = "mutated"
	if Names()[0] != "issue" {
		t.Error("Names() shares its backing array with callers")
	}
}

// TestOpenInReusesStorage pins the in-place open: a reopened ledger
// starts fresh whatever its previous life, accounts exactly like a heap
// ledger, and a nil probe neither hands one out nor touches the storage.
func TestOpenInReusesStorage(t *testing.T) {
	heap, inPlace := NewProbe("heap"), NewProbe("in-place")
	var slot Access
	for i := 0; i < 3; i++ {
		start := sim.Time(i) * 10_000
		for _, a := range []*Access{heap.Open(start), inPlace.OpenIn(&slot, start)} {
			a.To(PhaseIssue, start+100)
			a.To(PhaseTransit, start+900)
			a.Close(PhaseDevice, start+2_000)
		}
	}
	if heap.TotalPs() != inPlace.TotalPs() || heap.Accesses() != inPlace.Accesses() {
		t.Fatalf("in-place total/accesses %d/%d, heap %d/%d",
			inPlace.TotalPs(), inPlace.Accesses(), heap.TotalPs(), heap.Accesses())
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if heap.PhasePs(ph) != inPlace.PhasePs(ph) {
			t.Errorf("%s: in-place %d, heap %d", ph, inPlace.PhasePs(ph), heap.PhasePs(ph))
		}
	}
	var pr *Probe
	before := slot
	if a := pr.OpenIn(&slot, 5); a != nil || slot != before {
		t.Error("nil probe opened or touched the storage")
	}
}

// TestOpenInAllocatesNothing pins that an embedded ledger's whole life
// — open, marks, close into the probe — allocates nothing once the
// probe's histograms cover the phase totals.
func TestOpenInAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	pr := NewProbe("allocs")
	var slot Access
	at := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		a := pr.OpenIn(&slot, at)
		a.To(PhaseQueueWait, at+300_000)
		a.To(PhaseTransit, at+1_100_000)
		a.Close(PhaseDevice, at+2_000_000)
		at += 3_000_000
	})
	if allocs != 0 {
		t.Errorf("OpenIn/To/Close: %v allocations per access, want 0", allocs)
	}
}
