package report

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

// sample builds a minimal schema-valid report for the tests to mutate.
func sample() *Report {
	return &Report{
		Schema:  SchemaName,
		Version: SchemaVersion,
		Tool:    "test",
		Build:   CurrentBuild(),
		Sweep:   Sweep{Iterations: 100, Threads: []int{1, 2}},
		Tables: []*Table{
			{
				ID: "fig3", Title: "t", XLabel: "threads", YLabel: "norm",
				Series: []*Series{
					{Label: "1us", X: []Float{1, 2, 4}, Y: []Float{0.1, 0.5, 0.9}},
					{Label: "2us", X: []Float{1, 2, 4}, Y: []Float{0.05, 0.2, 0.45}},
				},
			},
			{
				ID: "fig5", Title: "t", XLabel: "threads", YLabel: "norm",
				Series: []*Series{
					{
						Label: "1us 8c", X: []Float{1, 2}, Y: []Float{0.2, 0.8},
						Diags: []*Diag{nil, {Accesses: 10, P99Ns: 2000, SimEvents: 42}},
					},
				},
			},
		},
	}
}

func TestFloatMarshalNaNAsNull(t *testing.T) {
	b, err := json.Marshal([]Float{1.5, Float(math.NaN()), Float(math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), "[1.5,null,null]"; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back []Float
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if float64(back[0]) != 1.5 || !back[1].IsNaN() || !back[2].IsNaN() {
		t.Fatalf("round trip = %v", back)
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

// rejections are single mutations of sample() that Validate must
// reject.
var rejections = []struct {
	name string
	mut  func(*Report)
}{
	{"wrong schema", func(r *Report) { r.Schema = "other" }},
	{"wrong version", func(r *Report) { r.Version = 99 }},
	{"empty tool", func(r *Report) { r.Tool = "" }},
	{"no tables", func(r *Report) { r.Tables = nil }},
	{"duplicate table", func(r *Report) { r.Tables[1].ID = "fig3" }},
	{"table without id", func(r *Report) { r.Tables[0].ID = "" }},
	{"no series", func(r *Report) { r.Tables[0].Series = nil }},
	{"duplicate series", func(r *Report) { r.Tables[0].Series[1].Label = "1us" }},
	{"unlabeled series", func(r *Report) { r.Tables[0].Series[0].Label = "" }},
	{"x/y length mismatch", func(r *Report) { r.Tables[0].Series[0].Y = r.Tables[0].Series[0].Y[:2] }},
	{"empty series", func(r *Report) {
		r.Tables[0].Series[0].X = nil
		r.Tables[0].Series[0].Y = nil
	}},
	{"misaligned diags", func(r *Report) { r.Tables[1].Series[0].Diags = r.Tables[1].Series[0].Diags[:1] }},
	{"null x cell", func(r *Report) { r.Tables[0].Series[0].X[1] = Float(math.NaN()) }},
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range rejections {
		r := sample()
		tc.mut(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken report", tc.name)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same report differ")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("encoding lacks trailing newline")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	r := sample()
	// A NaN y cell must survive the round trip as NaN, not zero.
	r.Tables[0].Series[0].Y[0] = Float(math.NaN())
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Tables[0].Series[0].Y[0].IsNaN() {
		t.Fatal("null cell did not round-trip to NaN")
	}
	if got := back.Table("fig5").FindSeries("1us 8c").Diags[1]; got == nil || got.SimEvents != 42 {
		t.Fatalf("diagnostics did not round-trip: %+v", got)
	}
	// Re-encoding the parsed report must reproduce the original bytes.
	a, _ := r.Encode()
	b, _ := back.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("re-encoding a parsed report changed its bytes")
	}
}

func TestFromTablesCarriesDiags(t *testing.T) {
	st := &stats.Table{ID: "x", Title: "x", XLabel: "x", YLabel: "y"}
	s := st.AddSeries("a")
	s.Add(1, 0.5)
	s.AddRun(2, 0.9, stats.RunDiag{Accesses: 7, P99Ns: 1500, MeanChipOccupancy: 3.5, SimEvents: 11})
	rt := FromTables([]*stats.Table{st})
	if len(rt) != 1 {
		t.Fatalf("tables = %d", len(rt))
	}
	rs := rt[0].FindSeries("a")
	if rs == nil || len(rs.Diags) != 2 {
		t.Fatalf("diags not carried: %+v", rs)
	}
	if rs.Diags[0] != nil {
		t.Fatal("plain Add cell should carry a nil diag")
	}
	if d := rs.Diags[1]; d.Accesses != 7 || float64(d.P99Ns) != 1500 || d.SimEvents != 11 {
		t.Fatalf("diag = %+v", rs.Diags[1])
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := &Series{Label: "s",
		X: []Float{1, 2, 4, 8},
		Y: []Float{0.2, Float(math.NaN()), 1.0, 0.95}}
	if got := s.YAt(4); got != 1.0 {
		t.Fatalf("YAt(4) = %v", got)
	}
	if !math.IsNaN(s.YAt(3)) || !math.IsNaN(s.YAt(2)) {
		t.Fatal("missing cells should read as NaN")
	}
	if x, y := s.Peak(); x != 4 || y != 1.0 {
		t.Fatalf("Peak = (%v, %v)", x, y)
	}
	if got := s.KneeX(0.9); got != 4 {
		t.Fatalf("KneeX(0.9) = %v", got)
	}
	if got := s.Last(); got != 0.95 {
		t.Fatalf("Last = %v", got)
	}
	var nilSeries *Series
	if !math.IsNaN(nilSeries.YAt(1)) || !math.IsNaN(nilSeries.Last()) || nilSeries.Cells() != 0 {
		t.Fatal("nil series accessors must degrade to NaN/zero")
	}
}

func TestCompareCleanOnIdentical(t *testing.T) {
	d := Compare(sample(), sample(), DefaultDiffOpt())
	if !d.Clean() {
		t.Fatalf("identical reports not clean: %s", d.Summary())
	}
	if d.Compared != 8 {
		t.Fatalf("compared %d cells, want 8", d.Compared)
	}
}

func TestCompareFlagsPerturbedCell(t *testing.T) {
	got := sample()
	got.Tables[0].Series[0].Y[2] = 0.6 // was 0.9: 33% drift
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() {
		t.Fatal("33% drift passed the gate")
	}
	if len(d.Exceeded) != 1 {
		t.Fatalf("Exceeded = %v", d.Exceeded)
	}
	c := d.Exceeded[0]
	if c.Table != "fig3" || c.Series != "1us" || c.X != 4 {
		t.Fatalf("wrong cell flagged: %+v", c)
	}
}

func TestCompareAbsoluteFloor(t *testing.T) {
	got := sample()
	// 0.05 -> 0.058: 16% relative but only 0.008 absolute, under the floor.
	got.Tables[0].Series[1].Y[0] = 0.058
	d := Compare(got, sample(), DefaultDiffOpt())
	if !d.Clean() {
		t.Fatalf("sub-floor drift failed the gate: %s", d.Summary())
	}
	if d.MaxRel < 0.1 {
		t.Fatalf("MaxRel = %v, drift should still be reported", d.MaxRel)
	}
}

func TestCompareMissingAndExtra(t *testing.T) {
	got := sample()
	got.Tables[0].Series = got.Tables[0].Series[:1] // drop "2us"
	got.Tables = append(got.Tables, &Table{ID: "fig99",
		Series: []*Series{{Label: "n", X: []Float{1}, Y: []Float{1}}}})
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() {
		t.Fatal("missing series passed the gate")
	}
	if len(d.MissingSeries) != 1 || d.MissingSeries[0] != "fig3/2us" {
		t.Fatalf("MissingSeries = %v", d.MissingSeries)
	}
	if len(d.ExtraTables) != 1 || d.ExtraTables[0] != "fig99" {
		t.Fatalf("ExtraTables = %v", d.ExtraTables)
	}

	// Extra-only growth (no missing cells) stays clean.
	got2 := sample()
	got2.Tables = append(got2.Tables, &Table{ID: "fig99",
		Series: []*Series{{Label: "n", X: []Float{1}, Y: []Float{1}}}})
	if d2 := Compare(got2, sample(), DefaultDiffOpt()); !d2.Clean() {
		t.Fatal("a grown sweep should not fail the diff")
	}
}

func TestCompareMissingCellOnGotNaN(t *testing.T) {
	got := sample()
	got.Tables[0].Series[0].Y[1] = Float(math.NaN())
	d := Compare(got, sample(), DefaultDiffOpt())
	if d.Clean() || len(d.MissingCells) != 1 {
		t.Fatalf("NaN-for-finite cell not flagged: %s", d.Summary())
	}
	// The reverse — baseline NaN, candidate finite — is not a regression.
	d2 := Compare(sample(), got, DefaultDiffOpt())
	if !d2.Clean() {
		t.Fatalf("finite-for-NaN cell failed the gate: %s", d2.Summary())
	}
}
