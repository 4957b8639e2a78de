package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/uthread"
	"repro/internal/workload"
)

// panickyBench is a microbenchmark whose thread 0 on core 1 panics
// once it has run, while every other thread is suspended mid-run.
type panickyBench struct{ *workload.Microbench }

func (w panickyBench) Body(coreID, threadID, threadsPerCore int) func(*uthread.API) {
	if coreID != 1 || threadID != 0 {
		return w.Microbench.Body(coreID, threadID, threadsPerCore)
	}
	return func(a *uthread.API) {
		a.Work(100)
		panic("thread exploded")
	}
}

// TestPanickingThreadUnwindsEveryCore: a panic in one core's thread
// reaches the caller of the threaded runners, and the executors of
// every core stop their suspended threads on the way out, so no
// coroutine is left behind.
func TestPanickingThreadUnwindsEveryCore(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := platform.Default().WithCores(2)
	for _, run := range []func(platform.Config, Workload, int, bool) (Result, error){RunPrefetch, RunSWQueue} {
		got := func() (r any) {
			defer func() { r = recover() }()
			run(cfg, panickyBench{workload.NewMicrobench(50, 100, 1)}, 4, false)
			return nil
		}()
		if got != "thread exploded" {
			t.Fatalf("run panicked with %v, want the thread's panic", got)
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n != base {
		t.Errorf("goroutines after panicking runs: %d, want %d", n, base)
	}
}
