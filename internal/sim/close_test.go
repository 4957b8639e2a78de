package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/uthread"
)

// goroutinesBackTo waits briefly for the goroutine count to settle at
// base and reports the last count seen.
func goroutinesBackTo(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// bystander starts an executor process that suspends a user-level
// thread mid-body and then blocks forever on g; unwound counts the
// deferred calls its body and its thread ran when the engine closed.
func bystander(e *Engine, g *Gate, unwound *int) {
	e.Go("bystander", func(p *Proc) {
		th := uthread.New(0, func(a *uthread.API) {
			defer func() { *unwound++ }()
			a.Work(1)
			a.Work(1)
		})
		defer func() {
			th.Stop()
			*unwound++
		}()
		th.Start()
		p.Wait(g)
	})
}

// TestFailedRunsLeaveNothingBehind pins the containment contract of
// RunChecked: runs aborted by the watchdog and runs whose process or
// thread body panics unwind every suspended process and thread, so
// the goroutine count returns to where it started.
func TestFailedRunsLeaveNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	const runs = 100
	unwound := 0
	for i := 0; i < runs; i++ {
		e := NewEngine()
		g := e.NewGate() // never fired
		e.Go("stuck", func(p *Proc) { p.Wait(g) })
		bystander(e, g, &unwound)
		_, err := e.RunChecked()
		if err == nil || !strings.Contains(err.Error(), "stuck, bystander") {
			t.Fatalf("run %d: RunChecked error = %v, want both stuck processes named", i, err)
		}
	}
	for i := 0; i < runs; i++ {
		e := NewEngine()
		g := e.NewGate()
		bystander(e, g, &unwound)
		want := fmt.Sprintf("body %d exploded", i)
		if i%2 == 0 {
			e.Go("bad-proc", func(p *Proc) {
				p.Sleep(Nanosecond)
				panic(want)
			})
		} else {
			e.Go("bad-exec", func(p *Proc) {
				p.Sleep(Nanosecond)
				th := uthread.New(1, func(a *uthread.API) {
					a.Work(1)
					panic(want)
				})
				th.Start()
				th.Resume(nil)
				t.Error("thread panic did not reach its executor")
			})
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			e.RunChecked()
			return nil
		}()
		if got != want {
			t.Fatalf("run %d: RunChecked panicked with %v, want %q", i, got, want)
		}
	}
	if want := 2 * 2 * runs; unwound != want {
		t.Errorf("deferred calls run on unwind = %d, want %d", unwound, want)
	}
	if n := goroutinesBackTo(base); n != base {
		t.Errorf("goroutines after %d aborted and %d panicking runs: %d, want %d", runs, runs, n, base)
	}
}
