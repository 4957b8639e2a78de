package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// servePool is the fixed set of distinct quick-suite requests the
// serve workload draws its jobs from. Most are single figures or
// ablations at reduced iteration counts, so first-time jobs cost tens
// to hundreds of milliseconds; some turn on attribution or metrics.
// The last three are today's slow paths: ext-kernelq and ext-smt
// recompute on every resubmission, and one fig10 panel runs all four.
func servePool() []serve.RunRequest {
	var pool []serve.RunRequest
	add := func(r serve.RunRequest) {
		r.Suite = "quick"
		pool = append(pool, r)
	}
	for i, iters := range []int{100, 150, 200, 250, 300, 400} {
		for j, fig := range []string{"2", "3", "4", "6", "7"} {
			r := serve.RunRequest{Experiments: []string{fig}, Iterations: iters}
			switch (i + j) % 4 {
			case 1:
				r.Attribution = true
			case 2:
				r.Metrics = true
			}
			add(r)
		}
	}
	for _, iters := range []int{150, 300} {
		for _, ab := range []string{"lfb", "chipq", "rule", "switch", "swqopts"} {
			add(serve.RunRequest{Experiments: []string{ab}, Iterations: iters})
		}
	}
	add(serve.RunRequest{Experiments: []string{"kernelq"}, Iterations: 200})
	add(serve.RunRequest{Experiments: []string{"smt"}, Iterations: 200})
	add(serve.RunRequest{Experiments: []string{"10a"}, AppLookups: 48, Threads: []int{1, 2, 4}})
	return pool
}

// serveRepeats is how many times every request of the pool is repeated
// after its first-time job. With three, 129 of the 172 jobs of a pass
// repeat an earlier request, so the median job sits at about the 67th
// percentile of the repeats, inside their dense middle rather than in
// their sparse slow end, and the 90th percentile is a first-time job.
const serveRepeats = 3

// serveSequence orders the jobs of one pass: every pool request once
// as a first-time job, then serveRepeats more times. The seed chooses
// the order; a repeat always follows its first occurrence. The
// multiset of jobs is the same for every seed, so the work a pass
// does is too.
func serveSequence(pool int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	firsts := rng.Perm(pool)
	var later []int
	for i := 0; i < pool; i++ {
		for k := 0; k < serveRepeats; k++ {
			later = append(later, i)
		}
	}
	seen := map[int]bool{}
	var seq []int
	for len(firsts) > 0 || len(later) > 0 {
		// Candidates for a repeat are those whose first job has run.
		var ready []int
		for k, idx := range later {
			if seen[idx] {
				ready = append(ready, k)
			}
		}
		if len(firsts) > 0 && (len(ready) == 0 || rng.Intn(2) == 0) {
			seq = append(seq, firsts[0])
			seen[firsts[0]] = true
			firsts = firsts[1:]
			continue
		}
		k := ready[rng.Intn(len(ready))]
		seq = append(seq, later[k])
		later = append(later[:k], later[k+1:]...)
	}
	return seq
}

// job is the client's record of one served job.
type job struct {
	req                     int // pool index
	repeat                  bool
	latency                 time.Duration
	submit, queue, run, get time.Duration
	computed, cached        uint64
	sha                     string
	body                    []byte // first occurrences only
}

// serveRunner drives an in-process kurecd server over loopback with
// one closed-loop client on one connection. Each pass gets a fresh
// server, journal and disk cache, so first-time jobs compute.
type serveRunner struct {
	name     string // prefix of each pass's scratch directory
	pool     []serve.RunRequest
	seq      []int
	parallel int

	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	pass   int
	dir    string // this pass's journal and disk cache

	jobs []job
	// refs holds the in-process report digest of each pool request,
	// computed once per process outside the timed section.
	refs     map[int]string
	refStore *resultstore.Store[core.Result]
}

func setupServe(b *bench) (runner, error) {
	pool := servePool()
	r := &serveRunner{
		pool:     pool,
		seq:      serveSequence(len(pool), b.seed),
		parallel: runtime.NumCPU(),
		refs:     map[int]string{},
		refStore: resultstore.New[core.Result](16384),
		client:   newClient(),
		name:     "serve",
	}
	if err := r.boot(b); err != nil {
		return r, err
	}
	return r, r.warm(b)
}

// serveWarmup is the job every pass's fresh server answers before the
// pass is timed, so the pass does not time the server's first job and
// every pass starts from the same state. No pool request uses its
// iteration count, so it shares no cell with the pool and the pass's
// first-time jobs still compute. It is eight long cells: a set-up is
// then mostly simulation, not the fsyncs of opening the journal and
// writing each cell to the disk cache, whose latency on a shared host
// changes from one process to the next by a factor of ten.
var serveWarmup = serve.RunRequest{Suite: "quick", Experiments: []string{"swqopts"}, Iterations: 4000}

// warm runs the warm-up job on the current server.
func (r *serveRunner) warm(b *bench) error {
	_, err := r.do(b, serveWarmup)
	return err
}

// newClient returns an HTTP client that keeps one connection open.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// boot starts a fresh server with its journal and disk cache in a new
// directory and mounts its handler on a loopback listener.
func (r *serveRunner) boot(b *bench) error {
	r.pass++
	r.dir = filepath.Join(b.scratch, fmt.Sprintf("%s-%d", r.name, r.pass))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Parallel:   r.parallel,
		QueueDepth: 4,
		CacheDir:   filepath.Join(r.dir, "cache"),
		Journal:    filepath.Join(r.dir, "journal"),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return err
	}
	r.srv = srv
	r.http = &http.Server{Handler: srv.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.http.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()
	return nil
}

// shutdown drains the server and stops the listener, waiting for both,
// then removes the pass's directory.
func (r *serveRunner) shutdown() error {
	if r.srv == nil {
		return nil
	}
	derr := r.srv.Drain(context.Background())
	herr := r.http.Shutdown(context.Background())
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	r.client.CloseIdleConnections()
	r.srv = nil
	return errors.Join(derr, herr, os.RemoveAll(r.dir))
}

func (r *serveRunner) iterate(b *bench, it *iteration) {
	r.jobs = r.jobs[:0]
	seen := map[int]bool{}
	for n, idx := range r.seq {
		prev := b.tr.setGroup(fmt.Sprintf("job-%d", n))
		j, err := r.do(b, r.pool[idx])
		j.req = idx
		b.tr.setGroup(prev)
		b.op(err)
		j.repeat = seen[idx]
		if !j.repeat && err == nil {
			seen[idx] = true
		} else {
			j.body = nil
		}
		r.jobs = append(r.jobs, j)
		it.jobs = append(it.jobs, j.latency)
		if j.repeat {
			it.repeats = append(it.repeats, j.latency)
		}
		it.cells += float64(j.computed + j.cached)
	}
}

type status struct {
	State         string `json:"state"`
	Error         string `json:"error"`
	CellsComputed uint64 `json:"cells_computed"`
	CellsCached   uint64 `json:"cells_cached"`
}

// do runs one job: POST it, poll its status until it is terminal, then
// read its report. Polls come every 200us for the first 5ms, so
// answers from cache are timed finely, then every 1ms, and every 4ms
// after 50ms, so long jobs do not compete with the polling for CPU.
func (r *serveRunner) do(b *bench, req serve.RunRequest) (j job, err error) {
	t0 := time.Now()
	sp := b.tr.begin("serve", "job")
	defer func() {
		j.latency = time.Since(t0)
		b.tr.end(sp)
	}()

	body, err := json.Marshal(req)
	if err != nil {
		return j, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := r.call(b, "POST", "/v1/runs", body, http.StatusAccepted, &sub); err != nil {
		return j, err
	}
	j.submit = time.Since(t0)
	posted := time.Now()
	var st status
	for {
		if err := r.call(b, "GET", "/v1/runs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return j, err
		}
		if st.State != string(serve.StateQueued) && j.queue == 0 {
			j.queue = time.Since(posted)
		}
		if st.State == string(serve.StateDone) || st.State == string(serve.StateFailed) || st.State == string(serve.StateCancelled) {
			break
		}
		time.Sleep(pollInterval(time.Since(posted)))
	}
	j.run = time.Since(posted) - j.queue
	j.computed, j.cached = st.CellsComputed, st.CellsCached
	if st.State != string(serve.StateDone) {
		return j, fmt.Errorf("job %s %s: %s", sub.ID, st.State, st.Error)
	}
	got := time.Now()
	var rep []byte
	if err := r.call(b, "GET", "/v1/runs/"+sub.ID+"/report", nil, http.StatusOK, &rep); err != nil {
		return j, err
	}
	j.get = time.Since(got)
	j.sha = sha(rep)
	j.body = rep
	return j, nil
}

func pollInterval(elapsed time.Duration) time.Duration {
	switch {
	case elapsed < 5*time.Millisecond:
		return 200 * time.Microsecond
	case elapsed < 50*time.Millisecond:
		return time.Millisecond
	}
	return 4 * time.Millisecond
}

// call makes one HTTP request and decodes the JSON answer into out (or
// stores the raw body when out is a *[]byte). A status other than want
// is an error.
func (r *serveRunner) call(b *bench, method, path string, body []byte, want int, out any) error {
	sp := b.tr.begin("http", method+" "+pathKind(path))
	defer b.tr.end(sp)
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// pathKind names an API route without its job id, for span names.
func pathKind(path string) string {
	switch {
	case path == "/v1/runs":
		return "/v1/runs"
	case len(path) > 7 && path[len(path)-7:] == "/report":
		return "/v1/runs/{id}/report"
	}
	return "/v1/runs/{id}"
}

// after checks every report against the first report of the same
// request and against the report computed in-process, counts the
// simulated events the first-time jobs reported, and boots the next
// pass's server.
func (r *serveRunner) after(b *bench, it *iteration) {
	first := map[int]string{}
	for _, j := range r.jobs {
		if j.sha == "" {
			continue
		}
		if !j.repeat {
			first[j.req] = j.sha
			it.events += float64(reportEvents(j.body))
			continue
		}
		b.check("serve-repeat-bytes", j.sha == first[j.req], "request %d: repeated report differs from its first", j.req)
	}
	for idx, got := range first {
		want, err := r.reference(idx)
		b.check("serve-vs-in-process", err == nil && got == want, "request %d: served report differs from the in-process one (%v)", idx, err)
	}
	if b.tr != nil {
		r.extras(b)
	}
	if err := r.shutdown(); err != nil {
		b.op(err)
	}
	err := r.boot(b)
	if err == nil {
		err = r.warm(b)
	}
	if err != nil {
		b.op(err)
	}
}

// reportEvents sums the engine events a report's cell diagnostics
// carry; 0 if the report does not parse.
func reportEvents(body []byte) uint64 {
	var rep report.Report
	if json.Unmarshal(body, &rep) != nil {
		return 0
	}
	var n uint64
	for _, t := range rep.Tables {
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

// reference computes a request's report in-process, the way kurecd's
// job runner does: the request's suite on an executor over a shared
// in-memory store, then the same plan and report encoding.
func (r *serveRunner) reference(idx int) (string, error) {
	if s, ok := r.refs[idx]; ok {
		return s, nil
	}
	req := r.pool[idx]
	s := experiments.Quick()
	if req.Iterations > 0 {
		s.Iterations = req.Iterations
	}
	if req.AppLookups > 0 {
		s.AppLookups = req.AppLookups
	}
	if len(req.Threads) > 0 {
		s.Threads = append([]int(nil), req.Threads...)
	}
	if req.Metrics {
		s.Base.MetricsWindow = sim.FromNanoseconds(10 * 1e3)
	}
	s.Base.Attribution = req.Attribution
	exec := experiments.NewExecWith(r.parallel, r.refStore)
	defer exec.Close()
	s.Exec = exec
	s.FleetShards = experiments.ShardBudget(r.parallel)
	var tables []*stats.Table
	for _, id := range req.Experiments {
		plan := experiments.PlanFor(s, id)
		if plan == nil {
			return "", fmt.Errorf("unknown experiment %q", id)
		}
		for _, e := range plan {
			ts, err := runStep(e)
			if err != nil {
				return "", err
			}
			tables = append(tables, ts...)
		}
	}
	b, err := s.Report(tables).Encode()
	if err != nil {
		return "", err
	}
	r.refs[idx] = sha(b)
	return r.refs[idx], nil
}

// steps returns the median of each step of the last pass's jobs, in
// milliseconds: the POST (which includes the journal fsync), the wait
// until a poll first sees the job running, the rest of the time until
// a poll sees it done, and the report GET.
func (r *serveRunner) steps() map[string]float64 {
	var submit, queue, run, get []float64
	for _, j := range r.jobs {
		submit = append(submit, float64(j.submit)/1e6)
		queue = append(queue, float64(j.queue)/1e6)
		run = append(run, float64(j.run)/1e6)
		get = append(get, float64(j.get)/1e6)
	}
	return map[string]float64{
		"submit_ms":     median(submit),
		"queue_wait_ms": median(queue),
		"run_ms":        median(run),
		"report_get_ms": median(get),
	}
}

// extras records the traced pass's job steps and its first-time and
// repeat job latencies.
func (r *serveRunner) extras(b *bench) {
	for name, v := range r.steps() {
		b.extra("workload.serve."+name, v, "ms")
	}
	var first, repeat []float64
	for _, j := range r.jobs {
		if j.repeat {
			repeat = append(repeat, float64(j.latency)/1e6)
		} else {
			first = append(first, float64(j.latency)/1e6)
		}
	}
	b.extra("workload.serve.first_job_p50_ms", median(first), "ms")
	b.extra("workload.serve.repeat_job_p50_ms", median(repeat), "ms")
}

func (r *serveRunner) close() {
	if err := r.shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: serve: shutdown:", err)
	}
}
