package resultstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyCanonical(t *testing.T) {
	a := Key("prefetch", "cfg1", "wl1")
	b := Key("prefetch", "cfg1", "wl1")
	if a != b {
		t.Fatal("identical parts produced different keys")
	}
	if a == Key("prefetch", "cfg1", "wl2") {
		t.Fatal("different parts produced equal keys")
	}
	// The length-prefixed encoding must not let adjacent parts bleed
	// into each other.
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("part boundaries are ambiguous")
	}
}

func TestDoCachesAndCounts(t *testing.T) {
	s := New[int](8)
	var computed atomic.Int32
	f := func() (int, error) { computed.Add(1); return 42, nil }

	for i := 0; i < 3; i++ {
		v, err := s.Do("k", f)
		if err != nil || v != 42 {
			t.Fatalf("Do = (%d, %v)", v, err)
		}
	}
	if computed.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computed.Load())
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	s := New[int](8)
	boom := errors.New("boom")
	calls := 0
	if _, err := s.Do("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if v, err := s.Do("k", func() (int, error) { calls++; return 9, nil }); err != nil || v != 9 {
		t.Fatalf("retry = (%d, %v)", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New[int](2)
	mk := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	s.Do("a", mk(1))
	s.Do("b", mk(2))
	s.Do("a", mk(1)) // refresh a; b is now the LRU tail
	s.Do("c", mk(3)) // evicts b
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("a was evicted despite being recently used")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSingleFlight: concurrent Do calls with one key run the compute
// function exactly once and all observe its value.
func TestSingleFlight(t *testing.T) {
	s := New[int](8)
	var computed atomic.Int32
	gate := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Do("k", func() (int, error) {
				computed.Add(1)
				<-gate
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if computed.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computed.Load())
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("waiter %d saw %d", i, v)
		}
	}
}

type diskVal struct {
	Label string
	N     float64
}

func TestDiskLayer(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := diskVal{Label: "cell", N: 1.25}
	if _, err := s1.Do("k", func() (diskVal, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory (a fresh process) must hit
	// disk instead of recomputing.
	s2, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s2.Do("k", func() (diskVal, error) {
		t.Error("recomputed despite disk entry")
		return diskVal{}, nil
	})
	if err != nil || v != want {
		t.Fatalf("disk round trip = (%+v, %v), want %+v", v, err, want)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell")
	// Plant garbage where the entry would live.
	p := filepath.Join(dir, key[:2], key[2:]+".gob")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := s.Do(key, func() (diskVal, error) { return diskVal{N: 3}, nil })
	if err != nil || v.N != 3 {
		t.Fatalf("Do over corrupt entry = (%+v, %v)", v, err)
	}
	// The rewrite must repair the file for the next store.
	s2, _ := Open[diskVal](dir, 4)
	if got, ok := s2.Get(key); !ok || got.N != 3 {
		t.Fatalf("repaired entry = (%+v, %v)", got, ok)
	}
}

func TestGetMiss(t *testing.T) {
	s := New[int](2)
	if v, ok := s.Get("absent"); ok || v != 0 {
		t.Fatalf("Get(absent) = (%d, %v)", v, ok)
	}
}

func ExampleStore_Do() {
	s := New[string](16)
	v, _ := s.Do(Key("fig3", "baseline"), func() (string, error) { return "computed", nil })
	fmt.Println(v)
	v, _ = s.Do(Key("fig3", "baseline"), func() (string, error) { return "never runs", nil })
	fmt.Println(v)
	// Output:
	// computed
	// computed
}

// TestTornDiskWriteInvisible simulates a crash mid-write: a torn .tmp
// file must never be read back, and a torn final file (pre-fsync-era
// layout) fails decoding and is recomputed.
func TestTornDiskWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[int](dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell")

	// A crash between OpenFile and Rename leaves only the temp file.
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p+".tmp", []byte("torn gob bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("torn temp file was served as a cache entry")
	}
	computed := 0
	v, err := s.Do(key, func() (int, error) { computed++; return 42, nil })
	if err != nil || v != 42 || computed != 1 {
		t.Fatalf("Do over torn tmp = (%d, %v), computed %d times", v, err, computed)
	}

	// The recompute must have published a clean entry under the final
	// name; a fresh store reads it without recomputing.
	s2, err := Open[int](dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Do(key, func() (int, error) { t.Fatal("recompute despite durable entry"); return 0, nil })
	if err != nil || v2 != 42 {
		t.Fatalf("replayed entry = (%d, %v)", v2, err)
	}
}

func TestOpenStamped(t *testing.T) {
	root := t.TempDir()
	s, err := OpenStamped[int](root, "go1.x-abc", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(Key("a"), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}

	// The entry lives under the stamp's subdirectory with its marker.
	sub := StampPath(root, "go1.x-abc")
	b, err := os.ReadFile(filepath.Join(sub, stampFile))
	if err != nil {
		t.Fatalf("no STAMP marker: %v", err)
	}
	if got := string(b); got != "go1.x-abc\n" {
		t.Errorf("STAMP = %q", got)
	}

	// A second build stamp gets a disjoint tree: its store misses.
	s2, err := OpenStamped[int](root, "go1.y-def", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(Key("a")); ok {
		t.Error("entry leaked across build stamps")
	}
	// Same stamp reopens warm.
	s3, err := OpenStamped[int](root, "go1.x-abc", 8)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s3.Get(Key("a")); !ok || v != 1 {
		t.Errorf("same-stamp reopen = (%d, %v), want warm hit", v, ok)
	}
}

// populate writes n entries through a stamped store and returns it.
func populateStamped(t *testing.T, root, stamp string, n int) {
	t.Helper()
	s, err := OpenStamped[int](root, stamp, n+1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Do(Key(stamp, fmt.Sprint(i)), func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanDirAndGC(t *testing.T) {
	root := t.TempDir()
	populateStamped(t, root, "build-old", 3)
	populateStamped(t, root, "build-new", 2)
	// Legacy flat-layout debris: a loose entry, a fan-out dir, a torn tmp.
	if err := os.WriteFile(filepath.Join(root, "ab.gob"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "cd"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "cd", "ef.gob"), []byte("xy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "zz.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	stats, err := ScanDir(root)
	if err != nil {
		t.Fatal(err)
	}
	byStamp := map[string]StampStats{}
	for _, st := range stats {
		byStamp[st.Stamp] = st
	}
	if st := byStamp["build-old"]; st.Entries != 3 {
		t.Errorf("build-old = %+v, want 3 entries", st)
	}
	if st := byStamp["build-new"]; st.Entries != 2 {
		t.Errorf("build-new = %+v, want 2 entries", st)
	}
	if st := byStamp[legacyStamp]; st.Entries != 2 {
		t.Errorf("legacy = %+v, want 2 entries (loose + fan-out)", st)
	}

	entries, bytes, err := GC(root, "build-new")
	if err != nil {
		t.Fatal(err)
	}
	// Removed: 3 old-stamp entries + 2 legacy entries (the torn .tmp is
	// swept too but never counted as an entry).
	if entries != 5 {
		t.Errorf("GC removed %d entries, want 5", entries)
	}
	if bytes == 0 {
		t.Error("GC reported zero bytes removed")
	}
	stats2, err := ScanDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2) != 1 || stats2[0].Stamp != "build-new" || stats2[0].Entries != 2 {
		t.Fatalf("after GC: %+v, want only build-new with 2 entries", stats2)
	}
	if _, err := os.Stat(filepath.Join(root, "zz.tmp")); !os.IsNotExist(err) {
		t.Error("GC left the torn .tmp file behind")
	}
	// The kept build still reads warm after GC.
	s, err := OpenStamped[int](root, "build-new", 8)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(Key("build-new", "0")); !ok || v != 0 {
		t.Errorf("kept entry = (%d, %v), want warm hit", v, ok)
	}
}

// TestTruncatedDiskEntryRecomputed simulates a power cut tearing a
// finished entry: the half-written gob is a miss, recomputed, and
// rewritten intact.
func TestTruncatedDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("cell")
	if _, err := s.Do(key, func() (diskVal, error) { return diskVal{N: 7}, nil }); err != nil {
		t.Fatal(err)
	}

	// Tear the entry mid-record.
	p := s.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 {
		t.Fatalf("gob entry suspiciously small: %d bytes", len(b))
	}
	if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	computed := 0
	v, err := s2.Do(key, func() (diskVal, error) { computed++; return diskVal{N: 7}, nil })
	if err != nil || v.N != 7 || computed != 1 {
		t.Fatalf("Do over torn entry = (%+v, %v), computed %d times", v, err, computed)
	}
	// The rewrite repaired the file: a third store reads it cold.
	s3, err := Open[diskVal](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s3.Get(key); !ok || got.N != 7 {
		t.Fatalf("repaired entry = (%+v, %v)", got, ok)
	}
}

// TestPanicReleasesWaiters: a compute that panics propagates to its
// own caller, fails the waiters sharing that execution instead of
// stranding them, and is retried by the next Do.
func TestPanicReleasesWaiters(t *testing.T) {
	s := New[int](8)
	entered := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		s.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("compute exploded")
		})
	}()
	<-entered
	waiter := make(chan error)
	go func() {
		_, err := s.Do("k", func() (int, error) { return 1, nil })
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the execution
	close(release)
	if r := <-panicked; r != "compute exploded" {
		t.Fatalf("caller recovered %v, want the compute's panic", r)
	}
	select {
	case err := <-waiter:
		if err != nil && !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by a panicking compute")
	}
	if v, err := s.Do("k", func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("retry after panic = (%d, %v), want (9, nil)", v, err)
	}
}
