package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// panicSink is a flight-recorder sink that panics on the first sealed
// window. Sinks run synchronously on the simulation goroutine, so the
// panic surfaces exactly as a panicking thread body would: inside a
// cell, on an executor worker.
type panicSink struct{}

func (panicSink) PublishWindow(telemetry.WindowEvent) { panic("sink exploded") }

// TestPanickingCellFailsOnlyItsJob drives a cell panic through the
// server's real job path: submit, executeJob, the executor's workers.
// The job fails with the panic, the journal records the failure, the
// daemon keeps answering, the next job produces a byte-correct report,
// and after Drain no goroutine is left behind.
func TestPanickingCellFailsOnlyItsJob(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	journal := filepath.Join(t.TempDir(), "kurecd.wal")
	srv, err := New(Config{Parallel: 2, QueueDepth: 4, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	srv.suiteHook = func(s *experiments.Suite) {
		if armed {
			s.Base.MetricsSink = panicSink{}
			armed = false
		}
	}
	c := soakClient{t: t, h: srv.Handler()}
	// Figure 3 runs prefetch and SWQ cells: engines, coroutine
	// processes and user-level threads that the failure must unwind.
	req := RunRequest{Suite: "quick", Experiments: []string{"3"}, Iterations: 100, Threads: []int{1, 4}, Metrics: true}
	submit := func() string {
		code, body := c.do(http.MethodPost, "/v1/runs", req)
		if code != http.StatusAccepted {
			t.Fatalf("submit answered %d: %s", code, body)
		}
		var sub map[string]string
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		return sub["id"]
	}

	failed := submit()
	if st := c.wait(failed); st != StateFailed {
		t.Fatalf("panicking job ended %s, want failed", st)
	}
	_, body := c.do(http.MethodGet, "/v1/runs/"+failed, nil)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Error, "experiment panicked") || !strings.Contains(st.Error, "sink exploded") {
		t.Errorf("failed job error = %.200q, want the cell's panic", st.Error)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := c.do(http.MethodGet, path, nil); code != http.StatusOK {
			t.Errorf("%s after the panic answered %d: %s", path, code, body)
		}
	}

	next := submit()
	if st := c.wait(next); st != StateDone {
		t.Fatalf("job after the panic ended %s, want done", st)
	}
	code, got := c.do(http.MethodGet, "/v1/runs/"+next+"/report", nil)
	if code != http.StatusOK {
		t.Fatalf("report answered %d", code)
	}
	suite, err := req.suite()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.plan(suite)
	if err != nil {
		t.Fatal(err)
	}
	want, err := suite.Report(experiments.RunPlan(plan, nil)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report after the panic differs from the direct report (%d vs %d bytes)", len(got), len(want))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	recorded := false
	for _, e := range entries {
		if e.T == recDone && e.ID == failed {
			recorded = e.State == StateFailed && strings.Contains(e.Err, "experiment panicked")
		}
	}
	if !recorded {
		t.Errorf("journal has no failed done record for %s carrying the panic", failed)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after drain, %d before the server started:\n%s",
			n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}
