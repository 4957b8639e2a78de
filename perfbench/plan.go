package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Digests of the workloads' output bytes. The simulator is
// deterministic, so any change to them is a change of results, not
// of speed.
const (
	// sweepTextSHA is `killerusec -all -quick` standard output.
	sweepTextSHA = "ed05bc6ff71426061cf5f0fb4a6ad12c66a3ef843b149818e894708ae6779746"
	// observedTextSHA and observedReportSHA are the text tables and the
	// JSON report of the paper plan without fig10, swept with
	// attribution and 10us metrics windows.
	observedTextSHA   = "3b45b8691eac729c45fb5ba0c6ead3e6f5e66812636b5304c957a8657c73526d"
	observedReportSHA = "3301bf3a713f0f1de6d1c4eafb26e401b85a7a2d2d66ade4c37704d2a695cade"
)

// baselinePath is the committed quick-sweep report the observed cells
// are compared against.
const baselinePath = "baselines/quick.json"

// planRunner runs the paper plan the way killerusec does: the quick
// suite, a one-worker executor with a fresh in-memory cache per pass,
// and no cache directory. observed adds attribution and metrics,
// drops fig10 and encodes the JSON report. Without observed it is
// exactly `killerusec -all -quick`, which the traced run's paper-plan
// probe makes one pass of.
type planRunner struct {
	observed bool
	// prefix names the traced pass's step times and executor counts:
	// "workload." for the workload itself, "experiments." for the
	// paper-plan probe.
	prefix   string
	suite    experiments.Suite
	baseline *report.Report // observed only

	// The last pass's executor, the plan bound to it, and its output,
	// for the untimed checks and repeats.
	exec   *experiments.Exec
	plan   []experiments.Experiment
	tables []*stats.Table
	text   string
	json   []byte
}

func quickSuite() experiments.Suite {
	s := experiments.Quick()
	s.FleetShards = experiments.ShardBudget(1)
	return s
}

func setupObserved(b *bench) (runner, error) {
	s := quickSuite()
	s.Base.Attribution = true
	s.Base.MetricsWindow = sim.FromNanoseconds(10 * 1e3)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base, err := report.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	return &planRunner{observed: true, suite: s, baseline: base, prefix: "workload."}, nil
}

// bind returns the plan over a suite that runs its cells on exec. The
// steps are method values, so they must be taken after Exec is set.
func (p *planRunner) bind(exec *experiments.Exec) (experiments.Suite, []experiments.Experiment) {
	s := p.suite
	s.Exec = exec
	var plan []experiments.Experiment
	for _, e := range s.PaperPlan() {
		if !p.observed || e.ID != "fig10" {
			plan = append(plan, e)
		}
	}
	return s, plan
}

// runStep runs one plan step, turning a cell panic into an error.
func runStep(e experiments.Experiment) (tables []*stats.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("step %s: %v", e.ID, r)
		}
	}()
	return e.Run(), nil
}

// render is killerusec's text output: the tables, blank-line separated.
func render(tables []*stats.Table) string {
	var sb strings.Builder
	for i, t := range tables {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(t.Text())
	}
	return sb.String()
}

func (p *planRunner) iterate(b *bench, it *iteration) {
	p.exec = experiments.NewExec(1)
	s, plan := p.bind(p.exec)
	p.plan = plan
	p.tables = p.tables[:0]
	for _, e := range p.plan {
		sp := b.tr.begin("experiments", "step."+e.ID)
		t0 := time.Now()
		ts, err := runStep(e)
		d := time.Since(t0)
		b.tr.end(sp)
		b.op(err)
		it.jobs = append(it.jobs, d)
		p.tables = append(p.tables, ts...)
		if b.tr != nil {
			b.extra(p.prefix+"step."+e.ID+"_s", d.Seconds(), "s")
		}
	}
	sp := b.tr.begin("stats", "render")
	p.text = render(p.tables)
	b.tr.end(sp)
	if p.observed {
		sp := b.tr.begin("report", "encode")
		var err error
		p.json, err = s.Report(p.tables).Encode()
		b.tr.end(sp)
		b.op(err)
	}
	st := p.exec.Stats()
	it.cells = float64(st.Cells)
	it.events = float64(simEvents(p.tables))
	if b.tr != nil {
		b.extra(p.prefix+"cells", float64(st.Cells), "count")
		b.extra(p.prefix+"dedup", float64(st.Dedup), "count")
	}
}

// simEvents sums the engine events every datapoint's diagnostics
// recorded (ablation points carry none).
func simEvents(tables []*stats.Table) uint64 {
	var n uint64
	for _, t := range tables {
		for _, s := range t.Series {
			for _, d := range s.Diags {
				if d != nil {
					n += d.SimEvents
				}
			}
		}
	}
	return n
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// after checks the pass's output, then times each step again on the
// pass's executor, whose cells are all memoized: the cost of
// answering a known plan (table assembly and rendering). These
// repeats take about a millisecond each, so they run for repeatFor
// (at least three rounds over the plan) to give a steady median.
func (p *planRunner) after(b *bench, it *iteration) {
	if p.observed {
		got := sha([]byte(p.text))
		b.check("observed-text-digest", got == observedTextSHA, "text sha256 %s, want %s", got, observedTextSHA)
		got = sha(p.json)
		b.check("observed-report-digest", got == observedReportSHA, "report sha256 %s, want %s", got, observedReportSHA)
		p.checkBaseline(b)
	}
	s, _ := p.bind(p.exec)
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < repeatFor; round++ {
		for _, e := range p.plan {
			t0 := time.Now()
			ts, err := runStep(e)
			if err == nil {
				if p.observed {
					_, err = s.Report(ts).Encode()
				} else {
					_ = render(ts)
				}
			}
			it.repeats = append(it.repeats, time.Since(t0))
			b.op(err)
		}
	}
	p.exec.Close()
	p.exec = nil
}

// repeatFor is how long a pass's memoized repeats run.
const repeatFor = 500 * time.Millisecond

// checkBaseline compares every observed cell with the same cell of the
// committed quick baseline, at zero tolerance.
func (p *planRunner) checkBaseline(b *bench) {
	var rep report.Report
	rep.Tables = report.FromTables(p.tables)
	want := &report.Report{}
	for _, t := range p.baseline.Tables {
		if rep.Table(t.ID) != nil {
			want.Tables = append(want.Tables, t)
		}
	}
	d := report.Compare(&rep, want, report.DiffOpt{})
	b.check("observed-vs-baseline", d.Clean() && d.Compared > 0 && len(want.Tables) == len(rep.Tables),
		"%d tables of %d matched, compared %d cells: %s", len(want.Tables), len(rep.Tables), d.Compared, d.Summary())
}

func (p *planRunner) close() {
	if p.exec != nil {
		p.exec.Close()
	}
}
