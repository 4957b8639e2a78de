package main

import (
	"strings"
	"testing"
)

func TestParseBenchBestRateLowestAllocs(t *testing.T) {
	in := `goos: linux
BenchmarkQuickSweep-2   1   6000000000 ns/op   80.5 cells/sec   900 B/op   2100000 allocs/op
BenchmarkQuickSweep-2   1   5000000000 ns/op   91.0 cells/sec   900 B/op   2100007 allocs/op
BenchmarkQuickSweep-2   1   7000000000 ns/op   70.1 cells/sec   900 B/op   2099998 allocs/op
BenchmarkNoAllocs-2     10  100 ns/op          5.0 events/sec
BenchmarkAllocsOnly-2   10  100 ns/op          0 B/op   0 allocs/op
BenchmarkNeither-2      10  100 ns/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	q := got["BenchmarkQuickSweep"]
	if q.Rate != 91.0 || q.Allocs != 2099998 || !q.HasAllocs || q.Procs != 2 {
		t.Errorf("QuickSweep = %+v, want rate 91 (best), allocs 2099998 (lowest)", q)
	}
	if n := got["BenchmarkNoAllocs"]; n.HasAllocs {
		t.Errorf("NoAllocs = %+v, want no allocs/op recorded", n)
	}
	if a, ok := got["BenchmarkAllocsOnly"]; !ok || a.Rate != 0 || !a.HasAllocs {
		t.Errorf("AllocsOnly = %+v, want kept with a zero rate for its allocation gate", a)
	}
	if _, ok := got["BenchmarkNeither"]; ok {
		t.Error("a benchmark with neither a rate nor allocs/op must not be parsed")
	}
}
