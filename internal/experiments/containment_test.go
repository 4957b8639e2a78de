package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExecPanickingCellIsItsError: a cell whose simulated thread
// bodies panic — a memcached store with no items divides by zero on
// its first lookup — comes back as that cell's error. A healthy cell
// on the same executor still completes, and once the executor closes
// no simulation goroutine is left behind.
func TestExecPanickingCellIsItsError(t *testing.T) {
	base := runtime.NumGoroutine()
	exec := NewExec(2)
	cfg := Quick().Base
	cfg.Cores = 2
	wl := WorkloadSpec{Kind: "memcached", MCItems: 16, MCValueLines: 1, Lookups: 8, Work: 10}
	good := exec.cell(prefetchCell(cfg, wl, 2, false))
	wl.MCItems = 0
	bad := exec.cell(prefetchCell(cfg, wl, 2, false))

	if _, err := bad.Result(); err == nil || !strings.Contains(err.Error(), "integer divide by zero") {
		t.Errorf("panicking cell error = %v, want the body's panic", err)
	}
	if r, err := good.Result(); err != nil || r.Accesses == 0 {
		t.Errorf("healthy cell = (%d accesses, %v), want a measurement", r.Accesses, err)
	}
	exec.Close()

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n != base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n != base {
		t.Errorf("goroutines after the executor closed: %d, want %d", n, base)
	}
}
