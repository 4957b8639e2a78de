package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// soakClient drives a server's handler in-process, without a network
// stack, so every goroutine the soak test sees is the server's own.
type soakClient struct {
	t *testing.T
	h http.Handler
}

func (c soakClient) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// wait polls a job until it is terminal and returns its state.
func (c soakClient) wait(id string) JobState {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := c.do(http.MethodGet, "/v1/runs/"+id, nil)
		if code != http.StatusOK {
			c.t.Fatalf("status of %s = %d: %s", id, code, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			c.t.Fatal(err)
		}
		if st.State.terminal() {
			return st.State
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatalf("job %s never finished", id)
	return ""
}

// settledHeap returns the live heap after two collections.
func settledHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSoakLeavesNothingBehind runs a few hundred small jobs through one
// in-process server — repeats answered from cache, rejected requests,
// cancellations — and checks that the daemon keeps neither goroutines
// nor memory per job beyond its job table: a worker, engine or record
// free list pinned across jobs would show in both.
func TestSoakLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	goroutines := runtime.NumGoroutine()
	srv, err := New(Config{Parallel: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := soakClient{t: t, h: srv.Handler()}

	pool := []RunRequest{
		{Suite: "quick", Experiments: []string{"3"}, Iterations: 100, Threads: []int{1, 4}},
		{Suite: "quick", Experiments: []string{"7"}, Iterations: 100, Threads: []int{2, 4}},
		{Suite: "quick", Experiments: []string{"3"}, Iterations: 120, Threads: []int{2}, Attribution: true},
		{Suite: "quick", Experiments: []string{"7"}, Iterations: 120, Threads: []int{4}, Metrics: true},
	}
	invalid := RunRequest{Suite: "no-such-suite"}
	const jobs, warmup = 300, 40
	var heapWarm uint64
	var done, cancelled, rejected int
	for i := 0; i < jobs; i++ {
		if i == warmup {
			heapWarm = settledHeap()
		}
		if i%10 == 9 {
			if code, body := c.do(http.MethodPost, "/v1/runs", invalid); code != http.StatusBadRequest {
				t.Fatalf("invalid request answered %d: %s", code, body)
			}
			rejected++
			continue
		}
		// Even jobs repeat a pooled request, answered from the cache;
		// odd ones ask for a new iteration count and simulate.
		req := pool[i%len(pool)]
		if i%2 == 1 {
			req.Iterations += i
		}
		code, body := c.do(http.MethodPost, "/v1/runs", req)
		if code != http.StatusAccepted {
			t.Fatalf("job %d submit answered %d: %s", i, code, body)
		}
		var sub map[string]string
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		id := sub["id"]
		if i%10 == 4 {
			// Cancel at once: the job is queued or running, or on a
			// cache hit may already be done (409).
			if code, body := c.do(http.MethodDelete, "/v1/runs/"+id, nil); code != http.StatusAccepted && code != http.StatusConflict {
				t.Fatalf("cancel of %s answered %d: %s", id, code, body)
			}
		}
		switch st := c.wait(id); st {
		case StateDone:
			done++
			if code, body := c.do(http.MethodGet, "/v1/runs/"+id+"/report", nil); code != http.StatusOK || len(body) == 0 {
				t.Fatalf("report of %s answered %d", id, code)
			}
		case StateCancelled:
			cancelled++
		default:
			t.Fatalf("job %s ended %s", id, st)
		}
	}
	heapEnd := settledHeap()
	t.Logf("%d done, %d cancelled, %d rejected; heap %.1f MB after warm-up, %.1f MB at the end",
		done, cancelled, rejected, float64(heapWarm)/(1<<20), float64(heapEnd)/(1<<20))
	if done == 0 || cancelled == 0 {
		t.Errorf("soak ran %d done and %d cancelled jobs; want both kinds", done, cancelled)
	}
	// The job table keeps every job's status and report, and the result
	// cache every computed cell: about 15 MB for these jobs. Keeping
	// each simulated platform (engine, device, records, threads) alive
	// as well grows the heap by about 240 MB, so 48 MB separates the
	// two with room on both sides.
	const bound = 48 << 20
	if heapEnd > heapWarm+bound {
		t.Errorf("live heap grew %.1f MB over %d jobs after warm-up, want < %d MB",
			float64(heapEnd-heapWarm)/(1<<20), jobs-warmup, bound>>20)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
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
