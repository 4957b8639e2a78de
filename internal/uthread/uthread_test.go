package uthread

import (
	"testing"

	"repro/internal/race"
)

func TestThreadLifecycle(t *testing.T) {
	th := New(7, func(a *API) {
		a.Work(100)
		data := a.Access(0x40)
		if data[0] != 42 {
			t.Errorf("access returned %d, want 42", data[0])
		}
		a.Work(50)
	})
	if th.ID() != 7 {
		t.Errorf("ID = %d", th.ID())
	}

	r := th.Start()
	if r.Kind != KindWork || r.Instr != 100 {
		t.Fatalf("first request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindAccess || len(r.Addrs) != 1 || r.Addrs[0] != 0x40 {
		t.Fatalf("second request = %+v", r)
	}
	line := make([]byte, 64)
	line[0] = 42
	r = th.Resume([][]byte{line})
	if r.Kind != KindWork || r.Instr != 50 {
		t.Fatalf("third request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindDone || !th.Finished() {
		t.Fatalf("final request = %+v finished=%v", r, th.Finished())
	}
}

func TestAccessBatchOrder(t *testing.T) {
	addrs := []uint64{0x100, 0x140, 0x180, 0x1C0}
	th := New(0, func(a *API) {
		data := a.AccessBatch(addrs)
		for i := range data {
			if data[i][0] != byte(i) {
				t.Errorf("line %d has tag %d", i, data[i][0])
			}
		}
	})
	r := th.Start()
	if r.Kind != KindAccess || len(r.Addrs) != 4 {
		t.Fatalf("request = %+v", r)
	}
	lines := make([][]byte, 4)
	for i := range lines {
		lines[i] = make([]byte, 64)
		lines[i][0] = byte(i)
	}
	if r = th.Resume(lines); r.Kind != KindDone {
		t.Fatalf("want done, got %+v", r)
	}
}

func TestWriteBatch(t *testing.T) {
	th := New(0, func(a *API) {
		a.Write(0x40)
		a.WriteBatch([]uint64{0x80, 0xC0})
		a.WriteBatch(nil) // no-op
	})
	r := th.Start()
	if r.Kind != KindWrite || len(r.Addrs) != 1 || r.Addrs[0] != 0x40 {
		t.Fatalf("first request = %+v", r)
	}
	r = th.Resume(nil)
	if r.Kind != KindWrite || len(r.Addrs) != 2 {
		t.Fatalf("second request = %+v", r)
	}
	if r = th.Resume(nil); r.Kind != KindDone {
		t.Fatalf("final request = %+v", r)
	}
	if KindWrite.String() != "write" {
		t.Error("kind string wrong")
	}
}

func TestZeroWorkAndEmptyBatchAreNoOps(t *testing.T) {
	th := New(0, func(a *API) {
		a.Work(0)
		a.Work(-3)
		if got := a.AccessBatch(nil); got != nil {
			t.Errorf("empty batch returned %v", got)
		}
	})
	// The body must run straight to done without any intermediate
	// requests.
	if r := th.Start(); r.Kind != KindDone {
		t.Fatalf("request = %+v, want done", r)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	th := New(0, func(a *API) {})
	th.Start()
	defer func() {
		if recover() == nil {
			t.Error("double start did not panic")
		}
	}()
	th.Start()
}

func TestResumeBeforeStartPanics(t *testing.T) {
	th := New(0, func(a *API) {})
	defer func() {
		if recover() == nil {
			t.Error("resume before start did not panic")
		}
	}()
	th.Resume(nil)
}

func TestResumeAfterDonePanics(t *testing.T) {
	th := New(0, func(a *API) {})
	if r := th.Start(); r.Kind != KindDone {
		t.Fatalf("request = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("resume after done did not panic")
		}
	}()
	th.Resume(nil)
}

func TestKindString(t *testing.T) {
	if KindWork.String() != "work" || KindAccess.String() != "access" || KindDone.String() != "done" {
		t.Error("kind strings wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func mkThreads(n int, iters int) []*Thread {
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = New(i, func(a *API) {
			for j := 0; j < iters; j++ {
				a.Work(10)
			}
		})
	}
	return threads
}

func TestRoundRobinOrder(t *testing.T) {
	threads := mkThreads(3, 2)
	rr := NewRoundRobin(threads)
	reqs := map[*Thread]Request{}
	for _, th := range threads {
		reqs[th] = th.Start()
	}
	var order []int
	for {
		th := rr.Next()
		if th == nil {
			break
		}
		order = append(order, th.ID())
		reqs[th] = th.Resume(nil)
	}
	// Start consumed each thread's first request, so each is resumed
	// twice (second work, then done), in cyclic order.
	want := []int{0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if rr.Live() != 0 {
		t.Errorf("live = %d", rr.Live())
	}
}

func TestRoundRobinSkipsFinished(t *testing.T) {
	// Thread 1 finishes first; the ring must keep cycling 0 and 2.
	threads := []*Thread{
		New(0, func(a *API) { a.Work(1); a.Work(1) }),
		New(1, func(a *API) { a.Work(1) }),
		New(2, func(a *API) { a.Work(1); a.Work(1) }),
	}
	for _, th := range threads {
		th.Start()
	}
	rr := NewRoundRobin(threads)
	for {
		th := rr.Next()
		if th == nil {
			break
		}
		th.Resume(nil)
	}
	for _, th := range threads {
		if !th.Finished() {
			t.Errorf("thread %d not finished", th.ID())
		}
	}
}

func TestFIFO(t *testing.T) {
	f := NewFIFO()
	if f.Pop() != nil || f.Len() != 0 {
		t.Fatal("empty FIFO misbehaved")
	}
	a, b := New(0, nil), New(1, nil)
	f.Push(a)
	f.Push(b)
	if f.Len() != 2 {
		t.Errorf("len = %d", f.Len())
	}
	if f.Pop() != a || f.Pop() != b || f.Pop() != nil {
		t.Error("FIFO order violated")
	}
}

// BenchmarkUthreadSwitch measures one thread switch round trip: the
// executor resumes a thread with its line and the thread runs to its
// next single-line access.
func BenchmarkUthreadSwitch(b *testing.B) {
	th := New(0, func(a *API) {
		for addr := uint64(0); ; addr += 64 {
			a.Access(addr)
		}
	})
	line := [][]byte{make([]byte, 64)}
	th.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Resume(line)
	}
	b.StopTimer()
	th.Stop()
}

// TestSwitchAllocatesNothing pins that a resumed single-line access or
// write allocates nothing.
func TestSwitchAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	th := New(0, func(a *API) {
		for addr := uint64(0); ; addr += 64 {
			a.Write(addr)
			a.Access(addr)
		}
	})
	line := [][]byte{make([]byte, 64)}
	th.Start()
	defer th.Stop()
	if n := testing.AllocsPerRun(100, func() { th.Resume(line) }); n != 0 {
		t.Errorf("Resume to the next access allocates %v objects, want 0", n)
	}
}
