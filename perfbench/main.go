// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's packages, checks the workload's
// output for correctness, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off. With -trace 1 the run records an in-memory span around
// every call the benchmark makes into a layer, runs the layer probes,
// and reports the per-layer set. README.md lists every metric, the
// workload it applies to, and the end-to-end metric it should move.
//
// Run it through run.py from the repository root, which builds this
// package first:
//
//	python3 perfbench/run.py --workload observed --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed a run uses when none is given, and the one
// the fleet digest was recorded at.
const defaultSeed = 1

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line's schema.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one invocation threads through its workload:
// the inputs, the tracer (nil when untraced), and the tallies of
// attempted and failed operations and correctness checks.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	scratch  string // per-run directory inside the checkout, removed at exit

	tr *tracer

	attempted int
	failed    int

	// extras are workload-specific per-layer values: printed in the
	// traced run's table and span file, but kept out of the result
	// line, whose metric set is the same for every workload.
	extras map[string]metric
}

// op counts one attempted operation (a plan step, a cluster run, an
// HTTP job) and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: operation failed: %v\n", b.workload, err)
	}
}

// check counts one correctness check.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check %s failed: %s\n", b.workload, name, fmt.Sprintf(format, args...))
	}
}

func (b *bench) extra(name string, v float64, unit string) {
	b.extras[name] = metric{v, unit}
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "how long the untraced run measures")
		traced  = flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs traced and reports the per-layer metrics")
		spans   = flag.String("spans", "", "directory the traced run writes its span file into")
		work    = flag.String("workdir", ".bench_build/run", "directory for per-run scratch files (serve journal and cache)")
	)
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *wl, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(*work, *wl+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)

	b := &bench{workload: *wl, seed: *seed, seconds: *seconds, scratch: scratch, extras: map[string]metric{}}
	n := 1
	if *traced == 0 {
		n = setupRuns
	}
	r, setupS, err := setUp(b, w, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: set-up: %v\n", *wl, err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = runTraced(b, r, *spans)
	} else {
		metrics = runMeasured(b, w, r)
		metrics["setup_s"] = metric{setupS, "s"}
	}
	r.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	printTable(b, metrics)
	out := outcome{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// iteration is one timed pass over a workload's inputs.
type iteration struct {
	wall    time.Duration
	allocs  uint64
	bytes   uint64
	cells   float64
	events  float64
	jobs    []time.Duration // latency of each unit of user work
	repeats []time.Duration // latency of units whose inputs were seen before
}

// runner is a workload after set-up.
type runner interface {
	// iterate performs one timed pass and fills it.
	iterate(b *bench, it *iteration)
	// after runs outside the timed section: correctness checks, and
	// the repeat latencies of workloads that re-answer a known input.
	after(b *bench, it *iteration)
	close()
}

// workloadDef names a runner constructor, the least number of passes
// one untraced run measures (fleet needs two, so its repeats exist),
// and the untimed warm-up passes made before them. A process's first
// observed pass is its slowest, as the heap grows into fresh memory;
// fleet and serve warm up inside their set-up instead, with one
// cluster run and one served job.
type workloadDef struct {
	setup      func(b *bench) (runner, error)
	minPasses  int
	warmPasses int
}

var workloads = map[string]workloadDef{
	"observed": {setup: setupObserved, minPasses: 1, warmPasses: 1},
	"fleet":    {setup: setupFleet, minPasses: 2},
	"serve":    {setup: setupServe, minPasses: 1},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setupRuns is how many times an untraced run performs the workload's
// set-up; setup_s is their median.
const setupRuns = 11

// setUp performs the workload's set-up n times, closing all but the
// last runner, and returns that runner and the median set-up time.
// The first set-up of a process also pays one-time costs (lazy
// initialisation, the heap growing into fresh memory); the median
// over several is the steady cost, not the process start.
func setUp(b *bench, w workloadDef, n int) (runner, float64, error) {
	var times []float64
	var r runner
	for i := 0; i < n; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = w.setup(b)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, err
		}
	}
	return r, median(times), nil
}

// timed runs one pass with allocation accounting around it.
func timed(b *bench, r runner) iteration {
	var it iteration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r.iterate(b, &it)
	it.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	it.allocs = m1.Mallocs - m0.Mallocs
	it.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.after(b, &it)
	return it
}

// runMeasured makes the workload's warm-up passes, then passes until
// the run has measured for the requested seconds, and reports the
// end-to-end metrics: medians over passes, and latency percentiles
// over every unit of work.
func runMeasured(b *bench, w workloadDef, r runner) map[string]metric {
	for i := 0; i < w.warmPasses; i++ {
		timed(b, r)
	}
	var its []iteration
	var measured time.Duration
	for len(its) < w.minPasses || measured.Seconds() < b.seconds {
		it := timed(b, r)
		its = append(its, it)
		measured += it.wall
	}
	fmt.Printf("# %d passes, wall seconds:", len(its))
	for _, it := range its {
		fmt.Printf(" %.4f", it.wall.Seconds())
	}
	fmt.Println()
	var walls, cells, events, allocs, mb, jobRate []float64
	var jobs, repeats []float64
	for _, it := range its {
		s := it.wall.Seconds()
		walls = append(walls, s)
		cells = append(cells, it.cells/s)
		events = append(events, it.events/s)
		allocs = append(allocs, float64(it.allocs))
		mb = append(mb, float64(it.bytes)/(1<<20))
		jobRate = append(jobRate, float64(len(it.jobs))/s)
		jobs = append(jobs, millis(it.jobs)...)
		repeats = append(repeats, millis(it.repeats)...)
	}
	return map[string]metric{
		"wall_s":            {median(walls), "s"},
		"cells_per_s":       {median(cells), "1/s"},
		"sim_events_per_s":  {median(events), "1/s"},
		"allocs":            {median(allocs), "count"},
		"alloc_mb":          {median(mb), "MB"},
		"live_heap_mb":      {liveHeapMB(), "MB"},
		"job_p50_ms":        {percentile(jobs, 0.50), "ms"},
		"job_p90_ms":        {percentile(jobs, 0.90), "ms"},
		"repeat_job_p50_ms": {percentile(repeats, 0.50), "ms"},
		"jobs_per_s":        {median(jobRate), "1/s"},
	}
}

// runTraced makes a warm-up pass, then one untraced and one traced
// pass of the workload, then runs the layer probes under the same
// tracer, and reports the per-layer metrics. The first pass of a
// process is the slowest (the heap grows into fresh memory), so it is
// not compared. The span file goes to spansDir when set.
func runTraced(b *bench, r runner, spansDir string) (map[string]metric, error) {
	timed(b, r)
	plain := timed(b, r)
	b.tr = newTracer()
	b.tr.setGroup(b.workload)
	root := b.tr.begin("bench", b.workload)
	pass := b.tr.begin("pass", b.workload)
	tracedIt := timed(b, r)
	b.tr.end(pass)

	m := map[string]metric{
		"bench.tracing_overhead_frac": {tracedIt.wall.Seconds()/plain.wall.Seconds() - 1, "ratio"},
	}
	if err := runProbes(b, m); err != nil {
		return nil, err
	}
	b.tr.end(root)
	self := b.tr.selfTimes()
	for _, layer := range probeLayers {
		if self[layer] <= 0 {
			return nil, fmt.Errorf("no self time recorded in layer %s", layer)
		}
		m["self."+layer+"_s"] = metric{self[layer], "s"}
	}
	if spansDir != "" {
		name := fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)
		if err := b.tr.write(filepath.Join(spansDir, name), b.extras); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// printTable prints every metric, then the workload-specific extras,
// one per line, above the result line.
func printTable(b *bench, m map[string]metric) {
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("# %s\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	section(fmt.Sprintf("%s seed=%d", b.workload, b.seed), m)
	section("workload-specific (not in the result line)", b.extras)
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("%-44s %16.6g %s\n", "failed_frac", frac, "ratio")
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
